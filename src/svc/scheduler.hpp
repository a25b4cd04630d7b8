#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

/// \file scheduler.hpp
/// The admission half of the collective service, separated from execution
/// the way a cluster scheduler separates its queue/QoS/fair-share logic
/// from its partitions of workers (Slurm's sched vs. select plugins are
/// the vocabulary ROADMAP points at).  This class is pure bookkeeping over
/// opaque request handles — no threads, no futures, no engine types — so
/// every policy decision is unit-testable deterministically:
///
///  * QoS classes: three strict priority levels (kInteractive > kBatch >
///    kBestEffort).  A dispatch always serves the highest non-empty class;
///    within one request's execution nothing is preempted (collectives are
///    short), so "preemption" is queue-order preemption.
///  * Weighted fair share: stride scheduling across tenants inside a QoS
///    class.  Each tenant carries a virtual pass that advances by
///    kStrideUnit/weight per dispatch; the runnable tenant with the
///    smallest pass goes next, so over any saturated window tenant t
///    receives weight_t / sum(weights) of the dispatches (the fairness
///    test asserts ±20%, stride is near-exact).  A tenant waking from idle
///    rejoins at the current virtual time instead of cashing in hoarded
///    credit.
///  * Rate limits: per-tenant token bucket (rate_per_sec, burst) charged
///    at admission — an over-rate submit is rejected synchronously with
///    kRateLimited, never queued.
///  * Backpressure: per-tenant bounded queues (all QoS classes share the
///    tenant's budget).  A full queue rejects with kQueueFull — the
///    service never buffers unboundedly, callers see the overload
///    explicitly and can shed or retry.
///
/// Thread-safety: none here by design — the owning CollectiveService calls
/// every method under its own mutex.

namespace logpc::svc {

/// Quality-of-service class, strict priority order (lower value wins).
enum class QoS : std::uint8_t {
  kInteractive = 0,  ///< latency-sensitive: always served first
  kBatch = 1,        ///< default class for sustained work
  kBestEffort = 2,   ///< served only when nothing above is waiting
};

inline constexpr std::size_t kQoSClasses = 3;

[[nodiscard]] const char* qos_name(QoS q) noexcept;

/// Per-tenant admission policy, fixed at registration.
struct TenantConfig {
  std::string name;                ///< metric label (escaped on export)
  std::uint32_t weight = 1;        ///< fair-share weight, >= 1
  std::size_t queue_capacity = 64; ///< bound over all QoS classes
  /// Token-bucket rate limit in requests/second; 0 = unlimited.  Must be
  /// finite and >= 0.
  double rate_per_sec = 0;
  /// Bucket depth (burst allowance); 0 = max(1, rate_per_sec).  Must be
  /// finite and >= 0.
  double burst = 0;
};

using TenantId = int;

/// Synchronous admission verdict.
enum class Admit : std::uint8_t {
  kAdmitted,     ///< enqueued; a dispatch will pick it up
  kQueueFull,    ///< tenant queue at capacity — backpressure, shed or retry
  kRateLimited,  ///< token bucket empty — tenant over its rate
};

class Scheduler {
 public:
  /// Stride numerator: pass advances by kStrideUnit / weight per dispatch.
  static constexpr std::uint64_t kStrideUnit = 1u << 20;

  /// Registers a tenant; weight and capacity are clamped to >= 1.  Throws
  /// std::invalid_argument, registering nothing, for a negative or
  /// non-finite rate_per_sec or burst.
  TenantId add_tenant(TenantConfig cfg);

  /// Admission: charges the rate bucket (at `now_sec`, any monotonic
  /// seconds clock) and the queue bound, then enqueues `handle` under
  /// (tenant, qos).  The handle is opaque — the service maps it back to
  /// the request it stashed.
  Admit offer(TenantId tenant, QoS qos, std::uint64_t handle, double now_sec);

  /// Dispatch: pops the next handle per the policy above.  Returns false
  /// when every queue is empty.
  bool pick(TenantId* tenant, std::uint64_t* handle);

  /// Removes one specific queued handle out of turn — the fusion batcher
  /// claims same-shape siblings from anywhere in the queues to coalesce
  /// them into the dispatch it just picked.  The tenant's stride pass is
  /// charged exactly as a pick() would charge it, so a fused member still
  /// consumes the tenant's fair-share credit and a tenant cannot ride
  /// fusion to more than its weight's share of dispatches.  Returns false
  /// (no state change) when the handle is not queued under (tenant, qos).
  bool take(TenantId tenant, QoS qos, std::uint64_t handle);

  [[nodiscard]] std::size_t queued() const { return queued_; }
  [[nodiscard]] std::size_t queue_depth(TenantId tenant) const;
  /// Depth of one tenant's queue in one QoS class (introspection).
  [[nodiscard]] std::size_t queue_depth(TenantId tenant, QoS qos) const;
  [[nodiscard]] std::size_t tenant_count() const { return tenants_.size(); }
  [[nodiscard]] const TenantConfig& config(TenantId tenant) const;

 private:
  struct Tenant {
    TenantConfig cfg;
    std::deque<std::uint64_t> q[kQoSClasses];
    std::size_t depth = 0;      ///< sum over classes
    std::uint64_t pass = 0;     ///< stride virtual time
    std::uint64_t stride = 0;   ///< kStrideUnit / weight
    double tokens = 0;          ///< rate bucket level
    double last_refill = 0;     ///< now_sec of the last refill
    bool bucket_started = false;
  };

  Tenant& at(TenantId tenant);
  [[nodiscard]] const Tenant& at(TenantId tenant) const;

  std::vector<Tenant> tenants_;
  std::size_t queued_ = 0;
  std::uint64_t vtime_ = 0;  ///< pass of the last dispatched tenant
};

}  // namespace logpc::svc
