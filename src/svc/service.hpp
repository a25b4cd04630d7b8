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
#include <thread>
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
/// dispatches them onto a small set of **persistent engine pools**: one
/// exec::Engine per pool, its run context kept warm, so back-to-back
/// collectives pay no per-link allocation (ExecReport::warm_buffers on
/// every Response proves it).
///
/// Data path of one admitted request:
///
///   submit(tenant, req) ── admission (Scheduler::offer: rate bucket,
///     queue bound) ──> per-tenant queue ── pool thread (Scheduler::pick:
///     QoS class, then weighted stride fair-share) ──> compiled Program
///     (cached per (op, root, segments) via Communicator::compile; plans
///     come from the shared thread-safe Planner) ──> one exec::Inputs for
///     the op ──> one Engine::run on the pool's warm engine ──> promise
///     fulfilled, future resolves with the Response.
///
/// High-throughput path (svc/fusion.hpp): after picking a batch or
/// best-effort request (interactive requests always run solo), the pool
/// coalesces up to 32 queued same-shape requests — any tenant — into one
/// engine run over concatenated buffers, fanning the result back out per
/// member; plan lookup, RunContext reuse and worker wakeups are paid once
/// per batch.  It holds a short fusion window
/// (Options::fusion_window_us) for late siblings only while other work is
/// queued or in flight: a lone request in an otherwise idle service
/// dispatches at once.  Broadcast payloads at or above
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
/// Shutdown is graceful by default: shutdown(true) stops admission,
/// drains every queued request through the pools, then joins the pool
/// threads; shutdown(false) stops after the in-flight runs and fails the
/// still-queued requests with kShutdown.  The destructor drains.
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
  /// throws std::invalid_argument for pools outside [1, 64], a fusion
  /// window whose deadline overflows the clock, a segmentation policy that
  /// can never split (segment_bytes == 0 or max_segments < 2 with a
  /// non-zero threshold), or a port above 65535 — never clamps silently.
  /// Everything else is fixed: every pool runs a default exec::Engine.
  struct Options {
    /// Persistent engine pools.  Each pool is one exec::Engine (a warm run
    /// context) plus one dispatcher thread that steps the engine's ranks;
    /// requests across pools run concurrently, requests on one pool
    /// serialize.
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
    /// Fusion window: after picking a fusible request (batch or
    /// best-effort class), the pool coalesces queued same-shape requests
    /// into the dispatch, 32 at most, and keeps the batch open up to this
    /// long for more to arrive.  The window is cut short when the batch
    /// fills, at shutdown, and when nothing else is queued while the batch
    /// is either already amortized (>= 2 members) or the only work in
    /// flight anywhere in the service — the service then sees no sign of a
    /// sibling.  0 disables fusion entirely; values whose deadline would
    /// overflow the steady clock are rejected.
    std::uint64_t fusion_window_us = 200;
    /// Broadcast payloads at/above this split into the Section 3 k-item
    /// segmented pipeline; 0 disables segmentation.
    std::size_t segment_threshold = 256 * 1024;
    /// Target bytes per segment: k = ceil(total / segment_bytes), clamped
    /// to [2, max_segments].
    std::size_t segment_bytes = 64 * 1024;
    int max_segments = 16;
    /// Deterministic fault injection applied to every run (an Injector is
    /// built from this spec per dispatch).  Test hook: a rank death inside
    /// a fused batch must fail every member consistently, and that can
    /// only be provoked from inside the service's own dispatch path.
    std::optional<fault::FaultSpec> fault;
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
  /// eventual Response.  Never blocks on execution.  Throws
  /// std::invalid_argument for an unknown tenant id.
  SubmitResult submit(TenantId tenant, Request request);

  /// Dispatch gate: pause() holds queued work (admission stays open),
  /// resume() releases it.  Draining shutdown overrides a pause.  Called
  /// before the first submit(), pause() builds a backlog
  /// deterministically — staged bring-up, and what the policy tests use.
  void pause();
  void resume();

  /// Stops admission, then either drains every queued request through the
  /// pools (drain = true) or fails still-queued requests with kShutdown
  /// (drain = false).  Joins the pool threads; idempotent; thread-safe.
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

  struct Pending {
    TenantId tenant = -1;
    Request req;
    std::promise<Response> promise;
    Clock::time_point submitted;
    std::uint64_t seq = 0;  ///< dispatch order, assigned at pick
    /// Fusion identity, computed once at submit (nullopt = must run solo).
    std::optional<FusionKey> fkey;
  };

  struct Pool {
    std::unique_ptr<exec::Engine> engine;
    std::thread thread;
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

  void pool_loop(int pool_index);
  /// Runs one dispatch — the whole batch through one engine run — and
  /// returns one Response per member, batch order.
  std::vector<Response> execute_batch(
      const std::vector<std::unique_ptr<Pending>>& batch, exec::Engine& engine,
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
  [[nodiscard]] double now_sec() const;

  Params params_;
  Options opts_;
  api::Communicator comm_;
  const Clock::time_point epoch_ = Clock::now();

  mutable std::mutex mu_;
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
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;

  std::mutex shutdown_mu_;  ///< serializes shutdown(); makes it idempotent
  bool shut_down_ = false;

  std::vector<Pool> pools_;

  obs::FlightRecorder recorder_;
  std::unique_ptr<IntrospectServer> introspect_;
};

}  // namespace logpc::svc
