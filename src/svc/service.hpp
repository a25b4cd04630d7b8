#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/communicator.hpp"
#include "exec/engine.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "runtime/planner.hpp"
#include "svc/fusion.hpp"
#include "svc/request.hpp"
#include "svc/scheduler.hpp"

/// \file service.hpp
/// The collective-service daemon: the long-running, multi-tenant serving
/// layer over the whole stack.  Where api::Communicator answers one call
/// at a time — plan, compile, run, return — a CollectiveService accepts
/// *requests* from logical tenants into per-tenant bounded queues, admits
/// them through QoS / fair-share / rate-limit policy (svc::Scheduler), and
/// runs them on a small set of **persistent engines**: one exec::Engine
/// per pool, its run context kept warm, so back-to-back collectives pay no
/// per-link allocation (ExecReport::warm_buffers on every Response proves
/// it).  Requests run on the threads that call into the service; it has
/// no dispatcher thread of its own.
///
/// Data path of one admitted request:
///
///   submit(tenant, req) ── admission (Scheduler::offer: rate bucket,
///     queue bound) ──> per-tenant queue ── combiner (Scheduler::pick:
///     QoS class, then weighted stride fair-share) ──> compiled Program
///     (cached per (op, root, segments) via Communicator::compile; plans
///     come from the shared thread-safe Planner) ──> one exec::Inputs for
///     the op ──> one Engine::run on a free pool's warm engine ──> promise
///     fulfilled, future resolves with the Response.
///
/// One dispatch path — flat combining (Hendler, Incze, Shavit & Tzafrir,
/// SPAA 2010): submit() queues the request, then, if an engine is free
/// and the service is not paused, the submitting thread takes that engine
/// and becomes a *combiner*.  A combiner picks through the Scheduler,
/// runs, fulfils, and picks again until the queue is empty; only then does
/// it hand the engine back.  The empty-queue check and the hand-back
/// happen under one mutex, the one under which a submitter looks for a
/// free engine, so a queued request always has a combiner that will see
/// it.  The contract: a combiner drains until the queue is empty, and a
/// submitter that finds every engine lent never runs anything — it queues
/// and returns its future at once.  So a submit into an idle service runs
/// its own request and returns a ready future, paying no thread hand-off;
/// under load a submitter may run other tenants' requests for as long as
/// the queue stays non-empty.  resume() and a draining shutdown() run the
/// same drain on their calling thread.  Admission, the stride charge, the
/// dispatch order, profiling and every metric are the same whichever
/// thread combines; logpc_svc_dispatch_total{path="caller"|"combined"}
/// counts requests run by their own submitter and by another thread.
///
/// High-throughput path (svc/fusion.hpp): after picking a batch or
/// best-effort request (interactive requests always run solo), the
/// combiner claims up to 31 already-queued same-shape requests — any
/// tenant — into one engine run over concatenated buffers, fanning the
/// result back out per member; plan lookup and RunContext reuse are paid
/// once per batch.  It never waits for a sibling to arrive: requests fuse
/// when they queue behind lent engines.  Broadcast payloads at or above
/// Options::segment_threshold additionally split into the Section 3
/// single-sending k-item schedule, overlapping successive segments'
/// transfer rounds instead of serializing one bulk send.  Fairness is
/// preserved: every fused member is charged against its tenant's stride
/// pass exactly as a solo dispatch would be (Scheduler::take).
///
/// Rejections are synchronous and explicit — SubmitResult carries
/// kQueueFull / kRateLimited / kShutdown with no future attached — so an
/// overloaded service applies backpressure instead of growing a queue
/// without bound.
///
/// Telemetry: per-tenant admission/rejection/completion counters, a
/// queue-depth gauge maintained at every admit/dispatch, queue-wait and
/// end-to-end latency histograms (all labeled `tenant="<escaped name>"`
/// through obs::label_pair so arbitrary tenant names render as valid
/// Prometheus), plus an `svc.request` span around every execution.
///
/// Shutdown is graceful by default: shutdown(true) stops admission and
/// drains every queued request (on its own thread when an engine is free,
/// else through the combiners that hold the engines); shutdown(false)
/// stops after the runs in progress and fails the still-queued requests
/// with kShutdown.  Either way it returns only after every engine is
/// handed back, so every run in progress has fulfilled its promise.  The
/// destructor drains.
///
/// Observability of the daemon itself: every successful run is profiled
/// (obs::analyze — causal DAG, critical path, component decomposition,
/// model residual) into an obs::FlightRecorder that keeps the last 64
/// profiles and flags |residual| > 0.5 as an anomaly, the resulting
/// RunProfile rides on the Response, and an opt-in HTTP introspection
/// server (Options::introspect_port, svc/introspect.hpp) serves /metrics,
/// /healthz, /statusz and /tracez from the live service.

namespace logpc::svc {

class IntrospectServer;

// OpKind, Status, Request, Response and SubmitResult live in
// svc/request.hpp (shared with the fusion helpers); this header
// re-exports them through its include.

class CollectiveService {
 public:
  /// Service configuration, validated at construction: the constructor
  /// throws std::invalid_argument for pools outside [1, 64] or a port
  /// above 65535 — never clamps silently.
  /// Everything else is fixed: every pool runs a default exec::Engine.
  struct Options {
    /// Persistent engine pools.  Each pool is one exec::Engine (a warm run
    /// context), lent to one combining thread at a time: requests across
    /// pools run concurrently, requests on one pool serialize.
    int pools = 2;
    /// Profile every successful run (obs::analyze) into the flight
    /// recorder and onto Response::profile.  On by default: the analyzer
    /// walks the event log once, and bench_profile guards its warm-path
    /// cost at < 5%.
    bool profile = true;
    /// HTTP introspection endpoint: port to serve /metrics, /healthz,
    /// /statusz and /tracez on.  Negative = disabled (the default);
    /// 0 = bind an ephemeral port (read it back via introspect_port()).
    int introspect_port = -1;
    /// Introspection bind address.  Loopback by default — the endpoint
    /// exposes operational internals, so reaching it from off-host is an
    /// explicit decision.
    std::string introspect_bind = "127.0.0.1";

    // --- high-throughput path (svc/fusion.hpp) -------------------------
    /// Broadcast payloads at/above this split into the Section 3 k-item
    /// segmented pipeline; 0 disables segmentation.
    std::size_t segment_threshold = 256 * 1024;
    /// Target bytes per segment: k = ceil(total / segment_bytes), clamped
    /// to [2, max_segments].  Fixed, not settable.
    static constexpr std::size_t segment_bytes = 64 * 1024;
    static constexpr int max_segments = 16;
  };

  /// \param planner plan-lookup service; nullptr uses the process-wide
  ///        runtime::Planner::shared_default() (shared plan cache).
  explicit CollectiveService(Params params, Options options,
                             std::shared_ptr<runtime::Planner> planner = nullptr);
  explicit CollectiveService(Params params)
      : CollectiveService(params, Options{}) {}
  ~CollectiveService();  ///< shutdown(true)
  CollectiveService(const CollectiveService&) = delete;
  CollectiveService& operator=(const CollectiveService&) = delete;

  /// Registers a tenant.  Thread-safe; may be called while serving.
  /// Throws std::invalid_argument (registering nothing, not even a metric
  /// label) for a negative or non-finite rate_per_sec or burst.
  TenantId register_tenant(TenantConfig config);

  /// Admission: synchronous verdict plus (on kOk) a future for the
  /// eventual Response.  Throws std::invalid_argument for an unknown
  /// tenant id.
  ///
  /// When an engine is free and the service is not paused, the calling
  /// thread becomes a combiner: it runs queued requests, its own among
  /// them, until the queue is empty, and the returned future is already
  /// ready.  When every engine is lent (or the service is paused), it
  /// queues the request and returns at once.  So one thread that bursts
  /// submits into an idle service runs them one after another on itself,
  /// and they do not fuse; requests that queue behind lent engines fuse.
  SubmitResult submit(TenantId tenant, Request request);

  /// Dispatch gate: pause() holds queued work (admission stays open);
  /// combiners finish their current run and hand their engines back.
  /// resume() releases the backlog and, when an engine is free, drains it
  /// on the calling thread.  Draining shutdown overrides a pause.  Called
  /// before the first submit(), pause() builds a backlog
  /// deterministically — staged bring-up, and what the policy tests use.
  void pause();
  void resume();

  /// Stops admission, then either drains every queued request (drain =
  /// true) or fails still-queued requests with kShutdown (drain = false).
  /// Returns once every engine is handed back; idempotent; thread-safe.
  void shutdown(bool drain = true);

  /// Point-in-time per-tenant accounting (test/ops introspection; the
  /// same numbers are exported as logpc_svc_* metrics).
  struct TenantCounters {
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t rejected_rate_limited = 0;
    /// Completions that rode a fused batch (>= 2 requests coalesced).
    std::uint64_t fused = 0;
    std::size_t queue_depth = 0;
  };
  [[nodiscard]] TenantCounters tenant_counters(TenantId tenant) const;

  /// Point-in-time snapshot of everything /statusz renders: service-level
  /// state, per-tenant config + counters + per-QoS queue depths, and the
  /// flight-recorder summary.
  struct TenantStatus {
    TenantId id = -1;
    std::string name;  ///< uniquified metric label value
    std::uint32_t weight = 1;
    std::size_t queue_capacity = 0;
    double rate_per_sec = 0;
    std::size_t depth_by_qos[kQoSClasses] = {};
    TenantCounters counters;
  };
  struct ServiceStatus {
    bool accepting = false;
    bool paused = false;
    int pools = 0;
    std::size_t queued = 0;
    /// Requests admitted and not yet completed (queued + dispatched).
    std::size_t inflight = 0;
    /// High-throughput path totals: members of >= 2-request fused batches,
    /// the batches themselves, and runs that took the segmented pipeline.
    std::uint64_t fused_requests = 0;
    std::uint64_t fused_batches = 0;
    std::uint64_t segmented_runs = 0;
    /// Requests run by their own submitter; the rest ran on a thread that
    /// combined them (another submitter, resume() or shutdown()).
    std::uint64_t caller_runs = 0;
    Params params;
    std::vector<TenantStatus> tenants;
    obs::FlightRecorder::Summary recorder;
  };
  [[nodiscard]] ServiceStatus status() const;

  /// The run-profile flight recorder (always present; empty when
  /// Options::profile is off).
  [[nodiscard]] const obs::FlightRecorder& flight_recorder() const {
    return recorder_;
  }

  /// The bound introspection port, or -1 when introspection is disabled.
  /// With Options::introspect_port = 0 this is the kernel-assigned
  /// ephemeral port.
  [[nodiscard]] int introspect_port() const;

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] int pools() const { return static_cast<int>(pools_.size()); }
  [[nodiscard]] bool accepting() const;
  /// Requests currently queued (all tenants).
  [[nodiscard]] std::size_t queued() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pool {
    std::unique_ptr<exec::Engine> engine;
    /// A combiner holds this pool's engine (guarded by mu_).
    bool lent = false;
  };

  /// Registry-owned instruments + plain mirrors for tenant_counters().
  struct TenantMetrics {
    std::string name;   ///< uniquified plain label value (statusz)
    std::string label;  ///< pre-escaped `tenant="..."` body
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> rejected_queue_full{0};
    std::atomic<std::uint64_t> rejected_rate_limited{0};
    std::atomic<std::uint64_t> fused{0};
    obs::Counter* admitted_total = nullptr;
    obs::Counter* rejected_queue_full_total = nullptr;
    obs::Counter* rejected_rate_limited_total = nullptr;
    obs::Counter* completed_ok_total = nullptr;
    obs::Counter* completed_error_total = nullptr;
    obs::Counter* fused_total = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* queue_wait = nullptr;
    obs::Histogram* e2e_latency = nullptr;
  };

  struct Pending {
    TenantId tenant = -1;
    TenantMetrics* tm = nullptr;  ///< the tenant's instruments (stable)
    Request req;
    std::promise<Response> promise;
    Clock::time_point submitted;
    std::uint64_t seq = 0;  ///< dispatch order, assigned at pick
    /// Fusion identity, computed once at submit (nullopt = must run solo).
    std::optional<FusionKey> fkey;
  };

  /// The one dispatch path.  Call with `lock` holding mu_: when there is
  /// work the service may run and an engine is free, lends that engine to
  /// the calling thread and runs batches on it until there is none, then
  /// hands it back — the last check and the hand-back under mu_.  `own` is
  /// the caller's request, if any (counted as a caller run when it runs).
  void combine(std::unique_lock<std::mutex>& lock, const Pending* own);
  /// Stamps a picked request's dispatch order and its tenant's queue
  /// depth.  Call under mu_.
  void mark_dispatched(Pending& pending);
  /// Runs one dispatch — the whole batch through one engine run on pool
  /// `pool_index`'s engine — then completes every member: metrics,
  /// in-flight accounting and the promise, batch order.  Called by a
  /// combiner, without mu_.
  void dispatch(const std::vector<std::unique_ptr<Pending>>& batch,
                int pool_index);
  /// Moves every queued request matching `key` into `batch` (admission
  /// order, up to the fusion batch cap), charging each claim through
  /// Scheduler::take.  Call under mu_.
  void claim_siblings(const FusionKey& key,
                      std::vector<std::unique_ptr<Pending>>& batch);
  TenantMetrics& metrics_at(TenantId tenant);  ///< call under mu_; throws
  /// Compiled program for (op, root, segments), cached for the service
  /// lifetime — the machine is fixed, so every same-shape request reuses
  /// one lowering (plans themselves come from the shared plan cache).
  /// segments > 1 resolves the Section 3 k-item pipeline program.
  std::shared_ptr<const exec::Program> program_for(OpKind op, ProcId root,
                                                  int segments);

  Params params_;
  /// The test seam (CollectiveServiceTestPeer sets it before the first
  /// dispatch): a rank death inside a fused batch must fail every member
  /// consistently, and that can only be provoked from inside the service's
  /// own dispatch path.
  friend struct CollectiveServiceTestPeer;

  Options opts_;
  /// Fault injection applied to every run (an Injector is built from this
  /// spec per dispatch); only the test seam sets it.
  std::optional<fault::FaultSpec> fault_;
  api::Communicator comm_;
  const Clock::time_point epoch_ = Clock::now();

  mutable std::mutex mu_;
  /// Signalled when a combiner hands an engine back during shutdown.
  std::condition_variable cv_;
  Scheduler sched_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Pending>> queued_reqs_;
  std::uint64_t next_handle_ = 1;
  std::uint64_t dispatch_seq_ = 0;
  bool paused_ = false;
  bool stopping_ = false;
  bool drain_on_stop_ = true;
  std::vector<std::unique_ptr<TenantMetrics>> tenant_metrics_;
  /// Metric label values handed out so far: a tenant re-using a name gets
  /// a "#<id>" suffix instead of silently sharing the first tenant's
  /// series.
  std::set<std::string> used_labels_;

  std::mutex prog_mu_;
  std::map<std::tuple<int, ProcId, int>, std::shared_ptr<const exec::Program>>
      programs_;

  /// Service-wide throughput accounting (plain atomics mirroring the
  /// logpc_svc_inflight / fused / batch-size instruments for status()).
  std::atomic<std::int64_t> inflight_{0};
  std::atomic<std::uint64_t> fused_requests_{0};
  std::atomic<std::uint64_t> fused_batches_{0};
  std::atomic<std::uint64_t> segmented_runs_{0};
  std::atomic<std::uint64_t> caller_runs_{0};
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Counter* dispatch_caller_total_ = nullptr;
  obs::Counter* dispatch_combined_total_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;

  std::mutex shutdown_mu_;  ///< serializes shutdown(); makes it idempotent
  bool shut_down_ = false;

  std::vector<Pool> pools_;

  obs::FlightRecorder recorder_;
  std::unique_ptr<IntrospectServer> introspect_;
};

}  // namespace logpc::svc
