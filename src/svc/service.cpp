#include "svc/service.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/critical_path.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace_recorder.hpp"
#include "svc/introspect.hpp"

namespace logpc::svc {

namespace {

/// Requests per fused batch, at most.
constexpr std::size_t kMaxFusionBatch = 32;
static_assert(kMaxFusionBatch >= 2, "a 1-request batch is no fusion");

/// Which QoS classes fuse.  Interactive runs solo — a fused run is longer
/// than a solo one, and the class exists for latency; batch and
/// best-effort fuse.
constexpr bool kFuseQoS[kQoSClasses] = {false, true, true};

/// Flight recorder: profiles retained, and the |residual| above which a
/// run is flagged as an anomaly.
constexpr std::size_t kFlightRecorderCapacity = 64;
constexpr double kResidualThreshold = 0.5;

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

const char* op_kind_name(OpKind op) noexcept {
  switch (op) {
    case OpKind::kBroadcast: return "broadcast";
    case OpKind::kReduce: return "reduce";
    case OpKind::kAllgather: return "allgather";
  }
  return "?";
}

const char* status_name(Status s) noexcept {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kQueueFull: return "queue_full";
    case Status::kRateLimited: return "rate_limited";
    case Status::kShutdown: return "shutdown";
    case Status::kError: return "error";
  }
  return "?";
}

namespace {

/// Rejects ill-formed Options at construction with std::invalid_argument
/// (the service used to clamp silently, which hid real misconfiguration);
/// returns the options unchanged so the member initializer can validate
/// before any pool or recorder is built.
CollectiveService::Options validated(const CollectiveService::Options& o) {
  if (o.pools < 1 || o.pools > 64) {
    throw std::invalid_argument(
        "CollectiveService: pools must be in [1, 64]");
  }
  if (o.introspect_port > 65535) {
    throw std::invalid_argument(
        "CollectiveService: introspect_port must be <= 65535");
  }
  return o;
}

}  // namespace

CollectiveService::CollectiveService(Params params, Options options,
                                     std::shared_ptr<runtime::Planner> planner)
    : params_(params),
      opts_(validated(options)),
      comm_(params, std::move(planner)),
      recorder_(obs::FlightRecorder::Options{kFlightRecorderCapacity,
                                             kResidualThreshold, nullptr}) {
  params_.require_valid();
  {
    auto& reg = obs::MetricsRegistry::global();
    inflight_gauge_ = &reg.gauge("logpc_svc_inflight",
                                 "requests admitted and not yet completed");
    batch_size_hist_ = &reg.histogram(
        "logpc_svc_batch_size", {1, 2, 4, 8, 16, 32, 64},
        "requests coalesced into one engine run per dispatch");
    const char* dispatch_help =
        "requests dispatched, by the thread that ran the engine: the "
        "request's own submitter, or another thread combining it";
    dispatch_caller_total_ = &reg.counter("logpc_svc_dispatch_total",
                                          dispatch_help, "path=\"caller\"");
    dispatch_combined_total_ = &reg.counter(
        "logpc_svc_dispatch_total", dispatch_help, "path=\"combined\"");
  }
  pools_.resize(static_cast<std::size_t>(opts_.pools));
  for (Pool& pool : pools_) pool.engine = std::make_unique<exec::Engine>();
  // Introspection last: the pages snapshot live service state, so the
  // service must be fully constructed before the first GET can land.  A
  // failed bind throws out of the constructor; nothing runs yet.
  if (opts_.introspect_port >= 0) {
    introspect_ = std::make_unique<IntrospectServer>(
        *this, IntrospectServer::Options{opts_.introspect_bind,
                                         opts_.introspect_port});
  }
}

CollectiveService::~CollectiveService() { shutdown(true); }

CollectiveService::TenantMetrics& CollectiveService::metrics_at(
    TenantId tenant) {
  if (tenant < 0 ||
      static_cast<std::size_t>(tenant) >= tenant_metrics_.size()) {
    throw std::invalid_argument("CollectiveService: unknown tenant id " +
                                std::to_string(tenant));
  }
  return *tenant_metrics_[static_cast<std::size_t>(tenant)];
}

TenantId CollectiveService::register_tenant(TenantConfig config) {
  auto tm = std::make_unique<TenantMetrics>();
  std::lock_guard lock(mu_);
  const TenantId id = sched_.add_tenant(config);
  std::string value = config.name.empty()
                          ? ("tenant-" + std::to_string(id))
                          : config.name;
  if (!used_labels_.insert(value).second) {
    value += "#" + std::to_string(id);
    used_labels_.insert(value);
  }
  // The tenant name is untrusted input: label_pair escapes it so the
  // exporter always emits parseable exposition text.
  tm->name = value;
  tm->label = obs::label_pair("tenant", value);

  // Registration takes the registry mutex while we hold mu_ (mu_ -> reg);
  // safe because nothing evaluated under the registry mutex takes mu_ —
  // every per-tenant instrument here is a plain atomic, not a callback.
  auto& reg = obs::MetricsRegistry::global();
  tm->admitted_total =
      &reg.counter("logpc_svc_admitted_total",
                   "requests admitted into a tenant queue", tm->label);
  tm->rejected_queue_full_total = &reg.counter(
      "logpc_svc_rejected_total", "requests rejected at admission",
      tm->label + ",reason=\"queue_full\"");
  tm->rejected_rate_limited_total = &reg.counter(
      "logpc_svc_rejected_total", "requests rejected at admission",
      tm->label + ",reason=\"rate_limited\"");
  tm->completed_ok_total =
      &reg.counter("logpc_svc_completed_total", "requests fully executed",
                   tm->label + ",status=\"ok\"");
  tm->completed_error_total =
      &reg.counter("logpc_svc_completed_total", "requests fully executed",
                   tm->label + ",status=\"error\"");
  tm->fused_total = &reg.counter(
      "logpc_svc_fused_requests_total",
      "requests completed as members of a fused batch (>= 2 coalesced)",
      tm->label);
  tm->queue_depth = &reg.gauge("logpc_svc_queue_depth",
                               "requests currently queued for the tenant",
                               tm->label);
  // Request latencies ride the log-scale bucket ladder: queue waits and
  // end-to-end times span ~1us (warm hit, idle queue) to seconds (deep
  // backlog), which linear latency buckets can't resolve at both ends.
  tm->queue_wait =
      &reg.histogram("logpc_svc_queue_wait_ns",
                     obs::default_request_buckets_ns(),
                     "admission-to-dispatch wait", tm->label);
  tm->e2e_latency =
      &reg.histogram("logpc_svc_request_ns", obs::default_request_buckets_ns(),
                     "submission-to-completion latency", tm->label);
  tenant_metrics_.push_back(std::move(tm));
  return id;
}

SubmitResult CollectiveService::submit(TenantId tenant, Request request) {
  auto pending = std::make_unique<Pending>();
  pending->tenant = tenant;
  pending->req = std::move(request);
  pending->submitted = Clock::now();
  // Fusion identity computed outside the lock (pure function of the
  // request); the dispatch side only compares keys.
  pending->fkey = fusion_key(pending->req);
  std::future<Response> response = pending->promise.get_future();
  // The rate bucket reads the submission stamp: one clock read per submit.
  const double now =
      std::chrono::duration<double>(pending->submitted - epoch_).count();

  SubmitResult out;
  std::unique_lock lock(mu_);
  TenantMetrics& m = metrics_at(tenant);  // validates the id first
  pending->tm = &m;
  if (stopping_) {
    out.status = Status::kShutdown;
    return out;
  }
  switch (sched_.offer(tenant, pending->req.qos, next_handle_, now)) {
    case Admit::kQueueFull:
      m.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
      m.rejected_queue_full_total->inc();
      out.status = Status::kQueueFull;
      return out;
    case Admit::kRateLimited:
      m.rejected_rate_limited.fetch_add(1, std::memory_order_relaxed);
      m.rejected_rate_limited_total->inc();
      out.status = Status::kRateLimited;
      return out;
    case Admit::kAdmitted:
      break;
  }
  m.admitted.fetch_add(1, std::memory_order_relaxed);
  m.admitted_total->inc();
  m.queue_depth->set(static_cast<double>(sched_.queue_depth(tenant)));
  inflight_.fetch_add(1, std::memory_order_relaxed);
  inflight_gauge_->add(1);
  const Pending* own = pending.get();
  queued_reqs_.emplace(next_handle_++, std::move(pending));
  combine(lock, own);
  out.status = Status::kOk;
  out.response = std::move(response);
  return out;
}

void CollectiveService::claim_siblings(
    const FusionKey& key, std::vector<std::unique_ptr<Pending>>& batch) {
  if (batch.size() >= kMaxFusionBatch) return;
  std::vector<std::uint64_t> handles;
  for (const auto& [handle, pending] : queued_reqs_) {
    if (pending->fkey.has_value() && *pending->fkey == key) {
      handles.push_back(handle);
    }
  }
  // Handles are issued monotonically, so ascending order is admission
  // order — the fan-out (Response::fused_index) stays deterministic.
  std::sort(handles.begin(), handles.end());
  for (const std::uint64_t handle : handles) {
    if (batch.size() >= kMaxFusionBatch) break;
    const auto it = queued_reqs_.find(handle);
    if (!sched_.take(it->second->tenant, it->second->req.qos, handle)) {
      continue;  // defensive: scheduler and request map out of sync
    }
    batch.push_back(std::move(it->second));
    queued_reqs_.erase(it);
  }
}

void CollectiveService::combine(std::unique_lock<std::mutex>& lock,
                                const Pending* own) {
  // drain=true keeps dispatching (a pause no longer holds work back) until
  // every queue is empty; drain=false stops after the run in progress and
  // leaves the leftovers for shutdown() to fail with kShutdown.
  const auto runnable = [this] {
    return sched_.queued() > 0 && (stopping_ ? drain_on_stop_ : !paused_);
  };
  if (!runnable()) return;
  const auto free_pool = std::find_if(pools_.begin(), pools_.end(),
                                      [](const Pool& p) { return !p.lent; });
  // Every engine lent: each holder re-checks the queue under mu_ before it
  // hands its engine back, so it will run this request.
  if (free_pool == pools_.end()) return;
  free_pool->lent = true;
  const int pool_index = static_cast<int>(free_pool - pools_.begin());
  do {
    std::vector<std::unique_ptr<Pending>> batch;
    TenantId tenant = -1;
    std::uint64_t handle = 0;
    (void)sched_.pick(&tenant, &handle);
    const auto it = queued_reqs_.find(handle);
    batch.push_back(std::move(it->second));
    queued_reqs_.erase(it);
    const Pending& lead = *batch.front();
    if (lead.fkey.has_value() &&
        kFuseQoS[static_cast<std::size_t>(lead.req.qos)]) {
      claim_siblings(*lead.fkey, batch);
    }
    std::size_t mine = 0;
    for (std::unique_ptr<Pending>& member : batch) {
      mark_dispatched(*member);
      if (member.get() == own) {
        mine = 1;
        own = nullptr;  // its address may be reused once it completes
      }
    }
    lock.unlock();
    caller_runs_.fetch_add(mine, std::memory_order_relaxed);
    dispatch_caller_total_->inc(mine);
    dispatch_combined_total_->inc(batch.size() - mine);
    dispatch(batch, pool_index);
    lock.lock();
  } while (runnable());
  free_pool->lent = false;
  // A shutdown waits for every engine; notified under mu_, since once it
  // is released shutdown() may return and the service be destroyed.
  if (stopping_) cv_.notify_all();
}

void CollectiveService::mark_dispatched(Pending& pending) {
  pending.seq = dispatch_seq_++;
  pending.tm->queue_depth->set(
      static_cast<double>(sched_.queue_depth(pending.tenant)));
}

std::shared_ptr<const exec::Program> CollectiveService::program_for(
    OpKind op, ProcId root, int segments) {
  const std::tuple<int, ProcId, int> key{
      static_cast<int>(op), op == OpKind::kAllgather ? 0 : root,
      op == OpKind::kBroadcast ? segments : 1};
  std::lock_guard lock(prog_mu_);
  auto it = programs_.find(key);
  if (it != programs_.end()) return it->second;
  runtime::Problem problem = runtime::Problem::kBroadcast;
  std::int64_t k = 1;
  switch (op) {
    case OpKind::kBroadcast:
      problem = segments > 1 ? runtime::Problem::kKItemBroadcast
                             : runtime::Problem::kBroadcast;
      k = segments;
      break;
    case OpKind::kReduce: problem = runtime::Problem::kReduce; break;
    case OpKind::kAllgather: problem = runtime::Problem::kAllToAll; break;
  }
  auto program = std::make_shared<const exec::Program>(
      comm_.compile(problem, k, std::get<1>(key)));
  programs_.emplace(key, program);
  return program;
}

void CollectiveService::dispatch(
    const std::vector<std::unique_ptr<Pending>>& batch, int pool_index) {
  exec::Engine& engine = *pools_[static_cast<std::size_t>(pool_index)].engine;
  const std::size_t n = batch.size();
  const Request& lead = batch.front()->req;
  const auto dispatched = Clock::now();

  std::vector<Response> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].pool = pool_index;
    out[i].dispatch_seq = batch[i]->seq;
    out[i].queue_wait_ns = ns_between(batch[i]->submitted, dispatched);
    out[i].fused = static_cast<std::uint32_t>(n);
    out[i].fused_index = static_cast<std::uint32_t>(i);
  }
  batch_size_hist_->observe(static_cast<double>(n));
  if (n > 1) {
    fused_batches_.fetch_add(1, std::memory_order_relaxed);
    fused_requests_.fetch_add(n, std::memory_order_relaxed);
  }

  obs::Span span("svc.request", "svc");
  if (span.active()) {
    span.set_arg(std::string(op_kind_name(lead.op)) +
                 " qos=" + qos_name(lead.qos) + " pool=" +
                 std::to_string(pool_index) + " fused=" + std::to_string(n));
  }

  // One engine run is the whole batch: a failure (including a rank death
  // under an injected fault) fails every member with the same error — no
  // member can have partially completed, and no future is left behind.
  // Whatever a user combiner throws is caught too, so a combining thread
  // never unwinds past the promises or out of its lent engine.
  const auto fail_all = [&out](const std::string& error) {
    for (Response& r : out) {
      r.status = Status::kError;
      r.error = error;
    }
  };
  int segments = 1;
  try {
    // A per-run injector: a killed rank never poisons the next dispatch's
    // decisions.
    std::optional<fault::Injector> injector;
    if (fault_.has_value()) injector.emplace(*fault_);
    const fault::Injector* inj = injector ? &*injector : nullptr;

    std::vector<const Request*> members;
    members.reserve(n);
    for (const std::unique_ptr<Pending>& member : batch) {
      members.push_back(&member->req);
    }

    // One Inputs, one engine run: a fused batch runs over its members'
    // concatenated bytes (a reduce over the chunked combiner), a lone
    // request over its own, uncopied.  The engine delivers a broadcast in
    // place, one buffer per proc whatever the segment count.
    exec::Bytes fused_payload;
    std::vector<exec::Bytes> fused_values;
    exec::Combiner fused_op;
    std::size_t chunk = 0;  // bytes per member in the fused buffers
    if (n > 1 && lead.op == OpKind::kBroadcast) {
      chunk = lead.payload.size();
      fused_payload = concat_payloads(members);
    } else if (n > 1) {
      chunk = lead.values.front().size();
      fused_values = concat_values(members);
      if (lead.op == OpKind::kReduce) {
        fused_op = fused_combiner(lead, chunk, n);
      }
    }
    const exec::Bytes& whole = n > 1 ? fused_payload : lead.payload;
    const std::vector<exec::Bytes>& values = n > 1 ? fused_values : lead.values;
    const exec::Combiner& combine = n > 1 ? fused_op : lead.combine;
    if (lead.op == OpKind::kBroadcast) {
      segments = choose_segments(
          whole.size(), SegmentPolicy{opts_.segment_threshold,
                                      opts_.segment_bytes, opts_.max_segments});
    }
    const exec::Inputs inputs = [&]() -> exec::Inputs {
      switch (lead.op) {
        case OpKind::kBroadcast:
          return exec::Payload{whole};
        case OpKind::kReduce:
          return exec::FoldValues{values, combine};
        case OpKind::kAllgather:
          break;
      }
      return exec::Items{values};
    }();
    exec::ExecReport run =
        engine.run(*program_for(lead.op, lead.root, segments), inputs, inj);
    if (segments > 1) {
      segmented_runs_.fetch_add(1, std::memory_order_relaxed);
    }

    std::shared_ptr<const obs::RunProfile> profile;
    if (opts_.profile) {
      // Analyze outside the recorder's lock (the recorder only ring-appends
      // under it).  Profiling is best-effort telemetry: a malformed event
      // log must never turn a completed run into a failed request.  One
      // batch is one run is one profile — every member shares it, so the
      // flight recorder attributes the engine work once while each tenant's
      // counters above still tick per request.
      try {
        profile = recorder_.record(obs::analyze(run));
      } catch (const std::exception&) {
        // leave profile null; the run itself succeeded
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[i].status = Status::kOk;
      out[i].segments = static_cast<std::uint32_t>(segments);
      out[i].profile = profile;
    }
    if (n == 1) {
      // Solo runs hand the report over unsliced: the engine already
      // coalesced a broadcast to one contiguous buffer per proc.
      out[0].report = std::move(run);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        out[i].report = member_report(run, chunk, i, n);
      }
    }
  } catch (const std::exception& e) {
    fail_all(e.what());
  } catch (...) {
    fail_all("unknown exception");
  }
  const auto done = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    Response& r = out[i];
    TenantMetrics& tm = *batch[i]->tm;
    r.total_ns = ns_between(batch[i]->submitted, done);
    tm.queue_wait->observe(static_cast<double>(r.queue_wait_ns));
    tm.e2e_latency->observe(static_cast<double>(r.total_ns));
    tm.completed.fetch_add(1, std::memory_order_relaxed);
    (r.status == Status::kOk ? tm.completed_ok_total
                             : tm.completed_error_total)
        ->inc();
    if (n > 1) {
      tm.fused.fetch_add(1, std::memory_order_relaxed);
      tm.fused_total->inc();
    }
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    inflight_gauge_->add(-1);
    batch[i]->promise.set_value(std::move(r));
  }
}

void CollectiveService::pause() {
  std::lock_guard lock(mu_);
  paused_ = true;
}

void CollectiveService::resume() {
  std::unique_lock lock(mu_);
  paused_ = false;
  combine(lock, nullptr);
}

void CollectiveService::shutdown(bool drain) {
  std::lock_guard shutdown_lock(shutdown_mu_);
  if (shut_down_) return;
  // Introspection first: its pages read live service state, so the server
  // must be gone before the queues start tearing down.
  introspect_.reset();
  // With drain=false the combiners stop after their runs in progress; fail
  // what they leave behind so no future is abandoned unresolved.
  std::vector<std::unique_ptr<Pending>> leftovers;
  {
    std::unique_lock lock(mu_);
    stopping_ = true;
    drain_on_stop_ = drain;
    combine(lock, nullptr);
    // A combiner hands its engine back, under mu_, only after fulfilling
    // its promises: once no pool is lent, every admitted request outside
    // the queues is complete.
    cv_.wait(lock, [this] {
      return std::none_of(pools_.begin(), pools_.end(),
                          [](const Pool& p) { return p.lent; });
    });
    shut_down_ = true;
    leftovers.reserve(queued_reqs_.size());
    for (auto& [handle, pending] : queued_reqs_) {
      leftovers.push_back(std::move(pending));
    }
    queued_reqs_.clear();
    TenantId tenant = -1;
    std::uint64_t handle = 0;
    while (sched_.pick(&tenant, &handle)) {
      metrics_at(tenant).queue_depth->set(
          static_cast<double>(sched_.queue_depth(tenant)));
    }
  }
  for (std::unique_ptr<Pending>& pending : leftovers) {
    Response r;
    r.status = Status::kShutdown;
    r.error = "service shut down before dispatch";
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    inflight_gauge_->add(-1);
    pending->promise.set_value(std::move(r));
  }
}

CollectiveService::TenantCounters CollectiveService::tenant_counters(
    TenantId tenant) const {
  std::lock_guard lock(mu_);
  auto* self = const_cast<CollectiveService*>(this);
  const TenantMetrics& m = self->metrics_at(tenant);
  TenantCounters c;
  c.admitted = m.admitted.load(std::memory_order_relaxed);
  c.completed = m.completed.load(std::memory_order_relaxed);
  c.rejected_queue_full = m.rejected_queue_full.load(std::memory_order_relaxed);
  c.rejected_rate_limited =
      m.rejected_rate_limited.load(std::memory_order_relaxed);
  c.fused = m.fused.load(std::memory_order_relaxed);
  c.queue_depth = sched_.queue_depth(tenant);
  return c;
}

CollectiveService::ServiceStatus CollectiveService::status() const {
  ServiceStatus s;
  s.pools = static_cast<int>(pools_.size());
  s.params = params_;
  s.recorder = recorder_.summary();
  std::lock_guard lock(mu_);
  s.accepting = !stopping_;
  s.paused = paused_;
  s.queued = sched_.queued();
  s.inflight = static_cast<std::size_t>(
      std::max<std::int64_t>(inflight_.load(std::memory_order_relaxed), 0));
  s.fused_requests = fused_requests_.load(std::memory_order_relaxed);
  s.fused_batches = fused_batches_.load(std::memory_order_relaxed);
  s.segmented_runs = segmented_runs_.load(std::memory_order_relaxed);
  s.caller_runs = caller_runs_.load(std::memory_order_relaxed);
  auto* self = const_cast<CollectiveService*>(this);
  s.tenants.reserve(tenant_metrics_.size());
  for (std::size_t i = 0; i < tenant_metrics_.size(); ++i) {
    const auto id = static_cast<TenantId>(i);
    const TenantMetrics& m = self->metrics_at(id);
    const TenantConfig& cfg = sched_.config(id);
    TenantStatus t;
    t.id = id;
    t.name = m.name;
    t.weight = std::max<std::uint32_t>(cfg.weight, 1);
    t.queue_capacity = cfg.queue_capacity;
    t.rate_per_sec = cfg.rate_per_sec;
    for (std::size_t qc = 0; qc < kQoSClasses; ++qc) {
      t.depth_by_qos[qc] = sched_.queue_depth(id, static_cast<QoS>(qc));
    }
    t.counters.admitted = m.admitted.load(std::memory_order_relaxed);
    t.counters.completed = m.completed.load(std::memory_order_relaxed);
    t.counters.rejected_queue_full =
        m.rejected_queue_full.load(std::memory_order_relaxed);
    t.counters.rejected_rate_limited =
        m.rejected_rate_limited.load(std::memory_order_relaxed);
    t.counters.fused = m.fused.load(std::memory_order_relaxed);
    t.counters.queue_depth = sched_.queue_depth(id);
    s.tenants.push_back(std::move(t));
  }
  return s;
}

int CollectiveService::introspect_port() const {
  return introspect_ ? introspect_->port() : -1;
}

bool CollectiveService::accepting() const {
  std::lock_guard lock(mu_);
  return !stopping_;
}

std::size_t CollectiveService::queued() const {
  std::lock_guard lock(mu_);
  return sched_.queued();
}

}  // namespace logpc::svc
