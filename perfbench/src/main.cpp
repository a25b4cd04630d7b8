/// perfbench: the repository benchmark.  One seeded workload per run,
/// driven through the public entry points (CollectiveService::submit,
/// Planner::plan, Communicator::compile, obs::analyze), every output
/// checked, every metric printed by name with its unit.
///
///   perfbench --workload <solo_small|fused_mix|large_bcast|plan_sweep>
///             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
///
/// --trace 0 measures the end-to-end metrics with no spans recorded.
/// --trace 1 alternates untraced and traced blocks inside one run: the
/// traced blocks give the per-layer metrics and span self times, the
/// difference between the two kinds of block is the tracing overhead.
/// The last line of stdout is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// Metric definitions and the metric-to-layer map: perfbench/README.md.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/communicator.hpp"
#include "obs/critical_path.hpp"
#include "runtime/planner.hpp"
#include "sim/implicit_sim.hpp"
#include "stats.hpp"
#include "svc/fusion.hpp"
#include "svc/service.hpp"
#include "trace.hpp"
#include "validate/checker.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using logpc::Params;
namespace sim = logpc::sim;
namespace validate = logpc::validate;

struct Args {
  Workload workload = Workload::kSoloSmall;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
  std::string note;  ///< human output only (sample counts, n/a marks)
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;    ///< the JSON metrics of --trace 0
  std::vector<Metric> layer;  ///< the JSON metrics of --trace 1
  std::vector<std::string> notes;  ///< extra human-readable lines
  std::vector<Span> spans;         ///< traced blocks only
};

constexpr int kSetups = 9;               ///< set-ups per run; median reported
constexpr double kWarmupSeconds = 0.3;   ///< untimed, after the last set-up
constexpr double kGiveUpSeconds = 30;    ///< a reply later than this fails
constexpr double kBlockSeconds = 0.5;    ///< traced/untraced alternation
/// Pipelined throughput is a median over slices this long, so one stall in
/// a run moves a few slices instead of the whole figure.
constexpr double kThroughputBlock = 0.1;
constexpr int kCallersPerThread = 16;    ///< fused_mix: outstanding per thread
constexpr int kClientThreads = 2;        ///< fused_mix
constexpr int kMixTenants = 4;           ///< fused_mix
constexpr std::size_t kSweepKeys = 1200; ///< plan_sweep keys per pass
constexpr int kWarmBatch = 1024;         ///< lookups per warm-hit timing
constexpr int kWarmThreads = 4;          ///< warm-hit probe: threads, and
constexpr int kWarmPlanners = 8;         ///< fresh planners per thread,
constexpr int kWarmBatches = 32;         ///< timed batches per planner
constexpr int kAnalyzeEvery = 16;        ///< obs::analyze sampling stride

double us(double ns) { return ns / 1e3; }
double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Every per-layer metric with its unit, in output order.  A workload
/// measures the ones on its path; complete_layers() reports the rest as 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"lat_p99_us", "us"},
    {"batch_lat_p50_us", "us"},
    {"interactive_lat_p99_us", "us"},
    {"goodput_MBps", "MB/s"},
    {"svc.submit_us", "us"},
    {"svc.queue_wait_us.p50", "us"},
    {"svc.queue_wait_us.p99", "us"},
    {"svc.outside_engine_us", "us"},
    {"svc.handoff_us", "us"},
    {"svc.batch_mean", "count"},
    {"svc.fused_share", "frac"},
    {"svc.segments_mean", "count"},
    {"exec.run_us.p50", "us"},
    {"exec.run_us.p99", "us"},
    {"exec.messages_per_req", "count"},
    {"exec.bytes_per_req", "B"},
    {"exec.warm_share", "frac"},
    {"exec.kernel_fold_share", "frac"},
    {"exec.mailbox_hwm", "count"},
    {"obs.analyze_us", "us"},
    {"obs.residual_abs_p50", "frac"},
    {"runtime.plan_cold_us.p50", "us"},
    {"runtime.plan_cold_us.p99", "us"},
    {"runtime.plan_hit_ns", "ns"},
    {"runtime.implicit_share", "frac"},
    {"runtime.warm_hit_ratio", "frac"},
    {"api.compile_us", "us"},
    {"trace.overhead_frac", "frac"},
};

std::vector<Metric> complete_layers(std::vector<Metric> measured) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it =
        std::find_if(measured.begin(), measured.end(),
                     [name = name](const Metric& m) { return m.name == name; });
    out.push_back(it != measured.end()
                      ? std::move(*it)
                      : Metric{name, 0, unit, "not on this workload's path"});
  }
  return out;
}

/// "n=1234", plus a mark when the percentile has too few samples beyond it.
std::string count_note(const Samples& s, double q) {
  const Quantile p = s.at(q);
  return "n=" + std::to_string(s.count()) +
         (p.reportable ? "" : " (fewer than 10 samples beyond: not reportable)");
}

// --- service workloads ------------------------------------------------------

/// Everything one client thread observed; merged across threads.
struct ServiceStats {
  std::uint64_t attempted = 0, failed = 0;
  Samples lat, lat_batch, lat_interactive;  // ns
  Samples submit, queue_wait, outside, handoff, run, analyze;  // ns
  Samples residual_abs;
  double fused_sum = 0, fused_members = 0, segments_sum = 0;
  double messages_sum = 0, bytes_sum = 0, warm = 0;
  double kernel_folds = 0, generic_folds = 0, mailbox_hwm = 0;
  double delivered = 0;  ///< payload bytes reaching non-root ranks
  /// Requests per second: per request for a lone caller, per
  /// kThroughputBlock slice for pipelined ones.
  Samples throughput;
  /// (ready stamp, latency) of this window's timed requests; folded into
  /// `throughput` when the window closes, never merged.
  std::vector<std::pair<std::int64_t, double>> completions;

  void merge(const ServiceStats& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (auto [dst, src] :
         {std::pair{&lat, &o.lat}, {&lat_batch, &o.lat_batch},
          {&lat_interactive, &o.lat_interactive}, {&submit, &o.submit},
          {&queue_wait, &o.queue_wait}, {&outside, &o.outside},
          {&handoff, &o.handoff}, {&run, &o.run}, {&analyze, &o.analyze},
          {&residual_abs, &o.residual_abs}, {&throughput, &o.throughput}}) {
      dst->append(*src);
    }
    fused_sum += o.fused_sum;
    fused_members += o.fused_members;
    segments_sum += o.segments_sum;
    messages_sum += o.messages_sum;
    bytes_sum += o.bytes_sum;
    warm += o.warm;
    kernel_folds += o.kernel_folds;
    generic_folds += o.generic_folds;
    mailbox_hwm = std::max(mailbox_hwm, o.mailbox_hwm);
    delivered += o.delivered;
  }
};

/// One in-flight request of a virtual caller.
struct Inflight {
  RequestSpec spec;
  std::future<svc::Response> future;
  std::int64_t t0 = 0;  ///< just before submit()
  std::int64_t t1 = 0;  ///< submit() returned
};

/// Checks and records one completed request.  `timed` is false for
/// requests that completed after the measuring window closed: they are
/// still checked, but add no timing.
void record(ServiceStats& st, const InputPool& pool, const Inflight& f,
            std::int64_t t_ready, svc::Response r, bool timed, SpanLog* log,
            bool analyze) {
  ++st.attempted;
  const std::int64_t v0 = log != nullptr ? now_ns() : 0;
  const bool ok = pool.verify(f.spec, r);
  if (log != nullptr) log->add("client.verify", 0, v0, now_ns());
  if (!ok) {
    ++st.failed;
    return;
  }
  if (!timed) return;
  const double lat = static_cast<double>(t_ready - f.t0);
  const auto qw = static_cast<std::int64_t>(r.queue_wait_ns);
  const auto total = static_cast<std::int64_t>(r.total_ns);
  const auto wall = static_cast<std::int64_t>(r.report.wall_ns);
  st.completions.emplace_back(t_ready, lat);
  st.lat.add(lat);
  (shape_info(f.spec.shape).qos == svc::QoS::kInteractive ? st.lat_interactive
                                                          : st.lat_batch)
      .add(lat);
  st.submit.add(static_cast<double>(f.t1 - f.t0));
  st.queue_wait.add(static_cast<double>(qw));
  st.run.add(static_cast<double>(wall));
  st.outside.add(static_cast<double>(total - qw - wall));
  st.handoff.add(static_cast<double>(t_ready - f.t0 - total));
  st.fused_sum += r.fused;
  st.fused_members += r.fused > 1 ? 1 : 0;
  st.segments_sum += r.segments;
  st.messages_sum += static_cast<double>(r.report.messages);
  st.bytes_sum += static_cast<double>(r.report.payload_bytes);
  st.warm += r.report.warm_pool && r.report.warm_buffers ? 1 : 0;
  st.kernel_folds += static_cast<double>(r.report.kernel_folds);
  st.generic_folds += static_cast<double>(r.report.generic_folds);
  st.mailbox_hwm = std::max(
      st.mailbox_hwm, static_cast<double>(r.report.max_mailbox_occupancy));
  st.delivered += delivered_bytes(f.spec.shape);
  if (r.profile) st.residual_abs.add(std::abs(r.profile->residual));

  if (log != nullptr) {
    // The request's layers, rebuilt from the stamps the Response returns:
    // the service stamps submission on entry to submit(), so t0 + total is
    // when the promise was fulfilled.
    const std::uint64_t root = log->open();
    const std::int64_t dispatched = f.t0 + qw;
    const std::int64_t done = f.t0 + total;
    const std::int64_t run_end = std::min(dispatched + wall, done);
    log->add("svc.submit", root, f.t0, f.t1);
    if (dispatched > f.t1) log->add("svc.queue", root, f.t1, dispatched);
    log->add("exec.run", root, dispatched, run_end);
    log->add("svc.outside_engine", root, run_end, done);
    if (t_ready > done) log->add("svc.handoff", root, done, t_ready);
    log->add(root, "request", 0, f.t0, t_ready);
  }
  if (analyze && !r.report.events.empty()) {
    const std::int64_t a0 = now_ns();
    const logpc::obs::RunProfile p = logpc::obs::analyze(r.report);
    const std::int64_t a1 = now_ns();
    if (p.P != kP) ++st.failed;
    st.analyze.add(static_cast<double>(a1 - a0));
    if (log != nullptr) log->add("obs.analyze", 0, a0, a1);
  }
}

/// The live service of a workload plus its tenants and the planner it
/// resolves through.
struct Deployment {
  std::shared_ptr<runtime::Planner> planner;
  std::unique_ptr<svc::CollectiveService> service;
  std::vector<svc::TenantId> tenants;
};

/// Set-up as a user pays it: service construction (pools prewarmed),
/// tenant registration, and the first request of every shape, which
/// plans and compiles cold.  Returns the elapsed seconds.
double set_up(Workload w, const InputPool& pool, Deployment& d,
              ServiceStats& st) {
  const std::int64_t t0 = now_ns();
  d.planner = std::make_shared<runtime::Planner>();
  d.service = std::make_unique<svc::CollectiveService>(
      service_machine(), svc::CollectiveService::Options{}, d.planner);
  const int tenants = w == Workload::kFusedMix ? kMixTenants : 1;
  d.tenants.clear();
  for (int t = 0; t < tenants; ++t) {
    d.tenants.push_back(d.service->register_tenant(
        {.name = "perfbench-" + std::to_string(t)}));
  }
  for (const MixEntry& e : request_mix(w)) {
    const RequestSpec spec{e.shape, 0};
    ++st.attempted;
    svc::SubmitResult sub =
        d.service->submit(d.tenants.front(), pool.request(spec));
    if (!sub.accepted() || !pool.verify(spec, sub.response.get())) {
      ++st.failed;
    }
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// The virtual callers of a service workload: one closed-loop caller for
/// solo_small and large_bcast, kClientThreads x kCallersPerThread for
/// fused_mix.  Caller c's requests come from its own seeded stream and go
/// to tenant c mod (tenants).
class Clients {
 public:
  Clients(Workload w, std::uint64_t seed, const InputPool& pool)
      : pool_(pool),
        threads_(w == Workload::kFusedMix ? kClientThreads : 1),
        per_thread_(w == Workload::kFusedMix ? kCallersPerThread : 1) {
    for (int c = 0; c < threads_ * per_thread_; ++c) {
      streams_.emplace_back(w, seed, static_cast<std::uint32_t>(c));
    }
  }

  [[nodiscard]] bool single() const { return threads_ * per_thread_ == 1; }

  /// Runs every caller for `seconds`; timing counts only requests that
  /// complete inside the window.
  void run(Deployment& d, double seconds, bool traced,
           std::vector<SpanLog>* logs, ServiceStats& out) {
    std::vector<ServiceStats> stats(static_cast<std::size_t>(threads_));
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int t = 0; t < threads_; ++t) {
      threads.emplace_back([&, t] {
        SpanLog* log = traced ? &(*logs)[static_cast<std::size_t>(t)] : nullptr;
        caller_loop(d, t, end, traced, log,
                    stats[static_cast<std::size_t>(t)]);
      });
    }
    for (std::thread& th : threads) th.join();
    block_throughput(stats, start, end, out.throughput);
    for (const ServiceStats& s : stats) out.merge(s);
  }

 private:
  /// Adds this window's throughput samples to `out`.  A lone closed-loop
  /// caller completes one request per latency, so each request is a
  /// sample of 1 / latency; that leaves out the caller's own checking time
  /// between requests.  Pipelined callers give one sample per
  /// kThroughputBlock slice: completions over the slice.
  void block_throughput(const std::vector<ServiceStats>& stats,
                        std::int64_t start, std::int64_t end,
                        Samples& out) const {
    if (single()) {
      for (const auto& [t_ready, lat] : stats.front().completions) {
        out.add(ratio(1e9, lat));
      }
      return;
    }
    const auto block = static_cast<std::int64_t>(kThroughputBlock * 1e9);
    const auto blocks = static_cast<std::size_t>(
        std::max<std::int64_t>(1, (end - start) / block));
    std::vector<double> done(blocks, 0);
    for (const ServiceStats& s : stats) {
      for (const auto& [t_ready, lat] : s.completions) {
        const auto b = static_cast<std::size_t>((t_ready - start) / block);
        if (b < blocks) done[b] += 1;
      }
    }
    const double span_s =
        static_cast<double>(end - start) / 1e9 / static_cast<double>(blocks);
    for (const double n : done) out.add(n / span_s);
  }

  /// Submits caller `caller`'s next request into `f`.  A request rejected
  /// at admission counts as failed; the caller tries again next sweep.
  void issue(Deployment& d, std::size_t caller, Inflight& f, ServiceStats& st) {
    f.spec = streams_[caller].next();
    svc::Request req = pool_.request(f.spec);
    const svc::TenantId tenant = d.tenants[caller % d.tenants.size()];
    f.t0 = now_ns();
    svc::SubmitResult sub = d.service->submit(tenant, std::move(req));
    f.t1 = now_ns();
    if (sub.accepted()) {
      f.future = std::move(sub.response);
    } else {
      ++st.attempted;
      ++st.failed;
    }
  }

  /// One thread's callers, until the window closes and every reply is in.
  /// A lone caller blocks on its future; a pipelined thread sweeps all its
  /// futures and stamps each one the moment it is seen ready, so one slow
  /// request never delays the collection of the others.  A reply still
  /// missing kGiveUpSeconds after the window counts as failed, so a hung
  /// service ends the run instead of stalling it.
  void caller_loop(Deployment& d, int thread, std::int64_t end, bool traced,
                   SpanLog* log, ServiceStats& st) {
    const auto first = static_cast<std::size_t>(thread * per_thread_);
    const std::int64_t give_up =
        end + static_cast<std::int64_t>(kGiveUpSeconds * 1e9);
    std::vector<Inflight> slots(static_cast<std::size_t>(per_thread_));
    std::uint64_t completed = 0;
    for (;;) {
      bool pending = false, progressed = false;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        Inflight& f = slots[i];
        const std::int64_t now = now_ns();
        if (!f.future.valid()) {
          if (now < end) issue(d, first + i, f, st);
          pending |= f.future.valid();
          continue;
        }
        pending = true;
        const auto wait = std::chrono::nanoseconds(
            per_thread_ == 1 ? std::max<std::int64_t>(give_up - now, 0) : 0);
        if (f.future.wait_for(wait) != std::future_status::ready) {
          if (now_ns() >= give_up) {
            ++st.attempted;
            ++st.failed;
            f.future = {};
          }
          continue;
        }
        const std::int64_t t_ready = now_ns();
        progressed = true;
        ++completed;
        record(st, pool_, f, t_ready, f.future.get(), t_ready <= end, log,
               traced && completed % kAnalyzeEvery == 0);
      }
      if (!pending && now_ns() >= end) break;
      if (!progressed) std::this_thread::yield();
    }
  }

  const InputPool& pool_;
  int threads_;
  int per_thread_;
  std::vector<RequestStream> streams_;
};

/// The planner keys a service workload's programs resolve through.
std::vector<runtime::PlanKey> service_keys(Workload w) {
  const Params m = service_machine();
  const svc::CollectiveService::Options opts;
  const svc::SegmentPolicy policy{opts.segment_threshold, opts.segment_bytes,
                                  opts.max_segments};
  std::vector<runtime::PlanKey> keys;
  const auto add = [&](const runtime::PlanKey& k) {
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
  };
  for (const MixEntry& e : request_mix(w)) {
    const ShapeInfo& info = shape_info(e.shape);
    switch (info.op) {
      case svc::OpKind::kBroadcast: {
        const int segments = svc::choose_segments(info.bytes, policy);
        add(segments > 1 ? runtime::PlanKey::segmented_broadcast(m, segments)
                         : runtime::PlanKey::broadcast(m, 0));
        break;
      }
      case svc::OpKind::kReduce: add(runtime::PlanKey::reduce(m, 0)); break;
      case svc::OpKind::kAllgather: add(runtime::PlanKey::alltoall(m, 1)); break;
    }
  }
  return keys;
}

/// Warm Planner::plan cost of the cached `plans`: batches of kWarmBatch
/// lookups cycling through them, one sample (ns per lookup) per batch.
/// On a shared host a hit's cost moves by up to 1.5x between threads and
/// planners, so the batches are spread over kWarmThreads x kWarmPlanners
/// fresh (thread, planner) pairs, each planner seeded with the same plans,
/// and pooled.  Counts a lookup that misses in `misses`.
Samples warm_hits(const std::vector<runtime::PlanPtr>& plans, SpanLog* log,
                  std::uint64_t& misses) {
  Samples out;
  for (int t = 0; t < kWarmThreads; ++t) {
    std::thread([&] {
      for (int p = 0; p < kWarmPlanners; ++p) {
        runtime::Planner planner;
        for (const runtime::PlanPtr& plan : plans) {
          if (plan != nullptr) planner.cache().put(plan->key, plan);
        }
        std::size_t next = 0;
        for (int b = 0; b < kWarmBatches; ++b) {
          const std::int64_t t0 = now_ns();
          for (int i = 0; i < kWarmBatch; ++i) {
            const runtime::PlanPtr& want = plans[next];
            if (want != nullptr && planner.plan(want->key) != want) ++misses;
            if (++next == plans.size()) next = 0;
          }
          const std::int64_t t1 = now_ns();
          out.add(static_cast<double>(t1 - t0) / kWarmBatch);
          if (log != nullptr) log->add("runtime.plan_warm", 0, t0, t1);
        }
      }
    }).join();
  }
  return out;
}

/// Cold plan and compile of `keys` on fresh planners until at least
/// `min_samples` plans were timed (per-layer probe of the service
/// workloads, whose own plans are cached after set-up).
void cold_probe(const std::vector<runtime::PlanKey>& keys,
                std::size_t min_samples, Samples& plan_ns, Samples& compile_ns,
                SpanLog* log) {
  while (plan_ns.count() < min_samples) {
    auto planner = std::make_shared<runtime::Planner>();
    const logpc::api::Communicator comm(service_machine(), planner);
    for (const runtime::PlanKey& key : keys) {
      const std::int64_t t0 = now_ns();
      const runtime::PlanPtr plan = planner->plan(key);
      const std::int64_t t1 = now_ns();
      const logpc::exec::Program program =
          comm.compile(key.problem, key.k, key.root);
      const std::int64_t t2 = now_ns();
      plan_ns.add(static_cast<double>(t1 - t0));
      compile_ns.add(static_cast<double>(t2 - t1));
      if (log != nullptr) {
        const std::uint64_t root = log->open();
        log->add("runtime.plan", root, t0, t1);
        log->add("api.compile", root, t1, t2);
        log->add(root, "key", 0, t0, t2);
      }
    }
  }
}

/// Payload bytes reaching non-root ranks per second, in MB/s.
double goodput_mbps(const ServiceStats& st) {
  return st.throughput.median() *
         ratio(st.delivered, static_cast<double>(st.lat.count())) / 1e6;
}

Result run_service(const Args& a) {
  Result res;
  const InputPool pool(a.workload, a.seed);
  ServiceStats setup_stats;
  Samples setups;
  Deployment d;
  for (int i = 0; i < kSetups; ++i) {
    d = Deployment{};  // previous service drains and joins, untimed
    setups.add(set_up(a.workload, pool, d, setup_stats));
  }

  Clients clients(a.workload, a.seed, pool);
  std::vector<SpanLog> logs;
  for (int t = 0; t < kClientThreads; ++t) logs.emplace_back(t + 1);
  ServiceStats discard;
  clients.run(d, kWarmupSeconds, false, nullptr, discard);
  setup_stats.attempted += discard.attempted;
  setup_stats.failed += discard.failed;

  // Untraced window(s) always; with --trace 1, traced blocks alternate
  // with untraced ones so both see the same service state.
  ServiceStats plain, traced;
  if (!a.trace) {
    clients.run(d, a.seconds, false, nullptr, plain);
  } else {
    for (double left = a.seconds; left > 1e-9;) {
      const double block = std::min(kBlockSeconds, left);
      clients.run(d, block / 2, false, nullptr, plain);
      clients.run(d, block / 2, true, &logs, traced);
      left -= block;
    }
  }

  // With the service drained and its pools joined, so idle engine threads
  // do not share the cores: warm lookups of the plans the service
  // resolved, then (traced only) the cold plan/compile probe.
  const std::shared_ptr<runtime::Planner> planner = d.planner;
  const double hit_ratio = planner->cache().stats().hit_ratio();
  d = Deployment{};
  const std::vector<runtime::PlanKey> keys = service_keys(a.workload);
  std::vector<runtime::PlanPtr> plans;
  for (const runtime::PlanKey& key : keys) plans.push_back(planner->plan(key));
  std::uint64_t misses = 0;
  const Samples hit = warm_hits(plans, nullptr, misses);
  Samples plan_cold, compile;
  if (a.trace) cold_probe(keys, 1100, plan_cold, compile, &logs[0]);
  for (const SpanLog& log : logs) {
    res.spans.insert(res.spans.end(), log.spans().begin(), log.spans().end());
  }

  res.attempted = setup_stats.attempted + plain.attempted + traced.attempted;
  res.failed = setup_stats.failed + plain.failed + traced.failed + misses;

  res.e2e = {
      {"setup_s", setups.median(), "s", "median of " + std::to_string(kSetups)},
      {"lat_p50_us", us(plain.lat.median()), "us", count_note(plain.lat, 0.5)},
      {"throughput_rps", plain.throughput.median(), "1/s",
       "median of " + std::to_string(plain.throughput.count()) +
           (clients.single() ? " per-request 1/latency" : " slices")},
  };
  res.notes.push_back("lat_us " + plain.lat.describe(1e-3) + "; batch " +
                      plain.lat_batch.describe(1e-3) + "; interactive " +
                      plain.lat_interactive.describe(1e-3));
  if (!a.trace) return res;

  // Latency-shaped metrics come from the untraced blocks, the layer
  // breakdown from the traced ones.
  const ServiceStats& t = traced;
  const double n = static_cast<double>(t.lat.count());
  res.layer = complete_layers({
      {"lat_p99_us", us(plain.lat.at(0.99).value), "us",
       count_note(plain.lat, 0.99)},
      {"batch_lat_p50_us", us(plain.lat_batch.median()), "us",
       count_note(plain.lat_batch, 0.5)},
      {"interactive_lat_p99_us", us(plain.lat_interactive.at(0.99).value),
       "us", count_note(plain.lat_interactive, 0.99)},
      {"goodput_MBps", goodput_mbps(plain), "MB/s", ""},
      {"runtime.plan_hit_ns", hit.median(), "ns", count_note(hit, 0.5)},
      {"svc.submit_us", us(t.submit.median()), "us", count_note(t.submit, 0.5)},
      {"svc.queue_wait_us.p50", us(t.queue_wait.median()), "us",
       count_note(t.queue_wait, 0.5)},
      {"svc.queue_wait_us.p99", us(t.queue_wait.at(0.99).value), "us",
       count_note(t.queue_wait, 0.99)},
      {"svc.outside_engine_us", us(t.outside.median()), "us",
       count_note(t.outside, 0.5)},
      {"svc.handoff_us", us(t.handoff.median()), "us",
       count_note(t.handoff, 0.5)},
      {"svc.batch_mean", ratio(t.fused_sum, n), "count", ""},
      {"svc.fused_share", ratio(t.fused_members, n), "frac", ""},
      {"svc.segments_mean", ratio(t.segments_sum, n), "count", ""},
      {"exec.run_us.p50", us(t.run.median()), "us", count_note(t.run, 0.5)},
      {"exec.run_us.p99", us(t.run.at(0.99).value), "us",
       count_note(t.run, 0.99)},
      {"exec.messages_per_req", ratio(t.messages_sum, n), "count", ""},
      {"exec.bytes_per_req", ratio(t.bytes_sum, n), "B", ""},
      {"exec.warm_share", ratio(t.warm, n), "frac", ""},
      {"exec.kernel_fold_share",
       ratio(t.kernel_folds, t.kernel_folds + t.generic_folds), "frac", ""},
      {"exec.mailbox_hwm", t.mailbox_hwm, "count", ""},
      {"obs.analyze_us", us(t.analyze.median()), "us",
       count_note(t.analyze, 0.5)},
      {"obs.residual_abs_p50", t.residual_abs.median(), "frac",
       count_note(t.residual_abs, 0.5)},
      {"runtime.plan_cold_us.p50", us(plan_cold.median()), "us",
       "fresh-planner probe, " + count_note(plan_cold, 0.5)},
      {"runtime.plan_cold_us.p99", us(plan_cold.at(0.99).value), "us",
       count_note(plan_cold, 0.99)},
      {"runtime.implicit_share", 0, "frac", "no implicit-only key at P = 8"},
      {"runtime.warm_hit_ratio", hit_ratio, "frac", ""},
      {"api.compile_us", us(compile.median()), "us", count_note(compile, 0.5)},
      {"trace.overhead_frac",
       ratio(t.lat.median(), plain.lat.median()) - 1, "frac",
       "traced / untraced lat_p50 - 1"},
  });
  return res;
}

// --- plan_sweep ---------------------------------------------------------------

validate::CheckOptions check_options(Family f) {
  validate::CheckOptions o;
  switch (f) {
    case Family::kReduce:
    case Family::kSummation:
      // Values converge on one processor: no broadcast goal, and partial
      // sums legitimately reach a processor more than once.
      o.forbid_duplicate_receive = false;
      o.require_complete = false;
      break;
    case Family::kAllgather:
      o.allow_duplex_overhead = true;  // Section 4.1's accounting
      break;
    case Family::kBcast:
    case Family::kKItem:
      break;
  }
  return o;
}

/// True iff `plan` passes the validator (materialized) or the full-scale
/// implicit simulation (implicit-only).
bool plan_valid(const SweepKey& k, const runtime::Plan& plan) {
  if (plan.materialized) {
    return validate::check(plan.schedule, check_options(k.family)).ok();
  }
  return plan.implicit != nullptr && sim::run_implicit(*plan.implicit).ok;
}

struct SweepStats {
  Samples lat, plan, compile, hit;  // ns
  Samples throughput;               // keys per second, one per pass
  Samples family_plan[kNumFamilies];
  double keys = 0, implicit_only = 0;
  std::vector<std::pair<double, std::size_t>> slowest;  ///< (ns, key index)
};

/// One cold pass over `keys` on a fresh planner, then warm lookups.
/// Returns the plans (null where planning threw) for validation.
std::vector<runtime::PlanPtr> sweep_pass(
    const std::vector<SweepKey>& keys,
    const std::shared_ptr<runtime::Planner>& planner, SpanLog* log,
    SweepStats& st, Result& res, double& hit_ratio) {
  std::vector<runtime::PlanPtr> plans(keys.size());
  double planned = 0, busy_ns = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const SweepKey& k = keys[i];
    ++res.attempted;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    try {
      plans[i] = planner->plan(k.key);
      t1 = now_ns();
      if (k.compile) {
        const logpc::api::Communicator comm(k.machine, planner);
        const logpc::exec::Program program =
            comm.compile(k.problem, k.k, k.root);
        if (program.procs.empty()) ++res.failed;
      }
    } catch (const std::exception& e) {
      ++res.failed;
      res.notes.push_back(std::string("plan/compile failed: ") +
                          k.key.to_string() + ": " + e.what());
      continue;
    }
    const std::int64_t t2 = now_ns();
    planned += 1;
    busy_ns += static_cast<double>(t2 - t0);
    st.slowest.emplace_back(static_cast<double>(t2 - t0), i);
    st.lat.add(static_cast<double>(t2 - t0));
    st.plan.add(static_cast<double>(t1 - t0));
    st.family_plan[static_cast<int>(k.family)].add(
        static_cast<double>(t1 - t0));
    if (k.compile) st.compile.add(static_cast<double>(t2 - t1));
    st.keys += 1;
    st.implicit_only += plans[i]->materialized ? 0 : 1;
    if (log != nullptr) {
      const std::uint64_t root = log->open();
      log->add("runtime.plan", root, t0, t1);
      if (k.compile) log->add("api.compile", root, t1, t2);
      log->add(root, "key", 0, t0, t2);
    }
  }
  st.throughput.add(ratio(planned, busy_ns / 1e9));
  hit_ratio = planner->cache().stats().hit_ratio();
  std::uint64_t misses = 0;
  st.hit.append(warm_hits(plans, log, misses));
  res.failed += misses;
  return plans;
}

/// Checks every plan outside the timed region: the validator for
/// materialized plans, the full-scale implicit simulation otherwise.
void validate_plans(const std::vector<SweepKey>& keys,
                    const std::vector<runtime::PlanPtr>& plans, SpanLog* log,
                    Result& res) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (plans[i] == nullptr) continue;
    ++res.attempted;
    const std::int64_t v0 = now_ns();
    if (!plan_valid(keys[i], *plans[i])) {
      ++res.failed;
      res.notes.push_back("invalid plan: " + keys[i].key.to_string());
    }
    if (log != nullptr) log->add("validate", 0, v0, now_ns());
  }
}

Result run_plan_sweep(const Args& a) {
  Result res;
  SpanLog log(1);
  SweepStats plain, traced;
  Samples setups;
  std::vector<SweepKey> keys;
  double hit_ratio = 0, measured_s = 0;
  for (int pass = 0;; ++pass) {
    // Every pass sets up afresh, so the set-up samples spread over the run.
    const std::int64_t s0 = now_ns();
    keys = sweep_keys(a.seed, kSweepKeys);
    const auto planner = std::make_shared<runtime::Planner>();
    setups.add(static_cast<double>(now_ns() - s0) / 1e9);
    const bool tracing = a.trace && pass % 2 == 1;
    const std::int64_t m0 = now_ns();
    const std::vector<runtime::PlanPtr> plans =
        sweep_pass(keys, planner, tracing ? &log : nullptr,
                   tracing ? traced : plain, res, hit_ratio);
    measured_s += static_cast<double>(now_ns() - m0) / 1e9;
    if (pass == 0) validate_plans(keys, plans, a.trace ? &log : nullptr, res);
    // Sweep for --seconds (set-up excluded) and at least kSetups passes; a
    // traced run also needs one pass of each kind.
    if (measured_s >= a.seconds && pass + 1 >= kSetups) break;
  }
  res.spans = log.spans();

  res.e2e = {
      {"setup_s", setups.median(), "s",
       "key generation + planner construction, median of " +
           std::to_string(setups.count())},
      {"lat_p50_us", us(plain.lat.median()), "us",
       "cold plan+compile per key, " + count_note(plain.lat, 0.5)},
      {"throughput_rps", plain.throughput.median(), "1/s",
       "plans_per_s: keys planned+compiled per second, median of " +
           std::to_string(plain.throughput.count()) + " passes"},
  };
  res.notes.push_back("lat_us " + plain.lat.describe(1e-3) +
                      "; warm Planner::plan ns " + plain.hit.describe());
  std::sort(plain.slowest.rbegin(), plain.slowest.rend());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, plain.slowest.size());
       ++i) {
    res.notes.push_back("slow key " +
                        std::to_string(plain.slowest[i].first / 1e6) +
                        " ms: " + keys[plain.slowest[i].second].key.to_string());
  }
  for (int f = 0; f < kNumFamilies; ++f) {
    res.notes.push_back(std::string("plan_cold_us ") +
                        family_name(static_cast<Family>(f)) + ": " +
                        plain.family_plan[f].describe(1e-3));
  }
  if (!a.trace) return res;

  const SweepStats& t = traced;
  res.layer = complete_layers({
      {"lat_p99_us", us(plain.lat.at(0.99).value), "us",
       count_note(plain.lat, 0.99)},
      {"runtime.plan_hit_ns", plain.hit.median(), "ns",
       count_note(plain.hit, 0.5)},
      {"runtime.plan_cold_us.p50", us(t.plan.median()), "us",
       count_note(t.plan, 0.5)},
      {"runtime.plan_cold_us.p99", us(t.plan.at(0.99).value), "us",
       count_note(t.plan, 0.99)},
      {"runtime.implicit_share", ratio(t.implicit_only, t.keys), "frac", ""},
      {"runtime.warm_hit_ratio", hit_ratio, "frac", ""},
      {"api.compile_us", us(t.compile.median()), "us",
       count_note(t.compile, 0.5)},
      {"trace.overhead_frac", ratio(t.lat.median(), plain.lat.median()) - 1,
       "frac", "traced / untraced lat_p50 - 1"},
  });
  return res;
}

// --- output ---------------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit,
                m.note.c_str());
  }
}

void print_self_times(const std::vector<Span>& spans) {
  std::printf("span self time (traced blocks)\n");
  std::printf("  %-22s %10s %14s %14s\n", "span", "count", "self_total_ms",
              "self_mean_us");
  for (const SelfTime& s : self_times(spans)) {
    std::printf("  %-22s %10zu %14.3f %14.3f\n", s.name.c_str(), s.count,
                s.total_ns / 1e6,
                s.count > 0 ? s.total_ns / 1e3 / static_cast<double>(s.count)
                            : 0.0);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <solo_small|fused_mix|large_bcast|"
               "plan_sweep> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>]\n");
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      const std::optional<Workload> w = parse_workload(v);
      if (!w) return false;
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
      have_seconds = a.seconds > 0 && a.seconds <= 120;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

int run(int argc, char** argv) {
  Args a;
  try {
    if (!parse(argc, argv, a)) return usage();
  } catch (const std::exception&) {
    return usage();
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload_name(a.workload),
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0);

  const Result res = a.workload == Workload::kPlanSweep ? run_plan_sweep(a)
                                                        : run_service(a);

  print_table("end-to-end", res.e2e);
  if (a.trace) {
    print_table("per-layer", res.layer);
    print_self_times(res.spans);
    if (!a.trace_out.empty()) {
      std::printf("  spans: %zu written to %s%s\n", res.spans.size(),
                  a.trace_out.c_str(),
                  write_chrome_trace(a.trace_out, res.spans) ? ""
                                                             : " (FAILED)");
    }
  }
  for (const std::string& n : res.notes) std::printf("  %s\n", n.c_str());
  const bool correct = res.failed == 0;
  std::printf("attempted=%llu failed=%llu fail_frac=%g\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              ratio(static_cast<double>(res.failed),
                    static_cast<double>(res.attempted)));

  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : a.trace ? res.layer : res.e2e) {
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
