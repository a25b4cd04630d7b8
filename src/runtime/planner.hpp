#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/plan_cache.hpp"

/// \file planner.hpp
/// The concurrent planning service: one facade in front of the schedule
/// producers in src/bcast and src/sum for the five executable collectives
/// (runtime::Problem).
///
/// plan(key) resolves in three stages:
///   1. cache probe — a hit returns the shared immutable plan instantly;
///   2. in-flight dedup — if another thread is already building this key,
///      wait on its result instead of building again (exactly one builder
///      per key, however many threads ask);
///   3. build — route the key to its producer, publish to the cache, wake
///      the waiters.
///
/// Builder exceptions propagate to the building thread and every waiter;
/// nothing is cached, so a later request retries.
///
/// Telemetry (src/obs): every planner shares the process-wide dedup-wait
/// counter and the per-problem build-latency histograms
/// (`logpc_planner_build_latency_ns{problem=...}`), and registers callback
/// gauges republishing its cache's request/hit/miss/evict counters and
/// per-shard occupancy under a `planner="<id>"` label (unregistered on
/// destruction).  The warm hit path carries *zero* added telemetry work:
/// hit/miss counts are the cache's own shard counters, read only at export
/// time.  Spans, timers and counters run on the cold build path only.

namespace logpc::runtime {

class Planner {
 public:
  /// A planner caches up to 4096 plans over 8 shards.
  Planner();
  ~Planner();
  Planner(const Planner&) = delete;
  Planner& operator=(const Planner&) = delete;

  /// The plan for `key`, from cache or built on first use (see file
  /// comment for the concurrency contract).
  [[nodiscard]] PlanPtr plan(const PlanKey& key);

  /// Convenience: canonicalize and plan in one call (arguments as
  /// PlanKey::make, i.e. stated on the physical machine).
  [[nodiscard]] PlanPtr plan(Problem problem, const Params& params,
                             std::int64_t k = 1, ProcId root = 0);

  /// Routes `key` to its producer, bypassing cache and dedup: the one
  /// function that knows every builder.  Also the cold path the plan-
  /// cache bench measures.  One representation per key: a broadcast or
  /// reduce key (the optimal tree and its reversal, masked or not) yields
  /// runtime::implicit_only_plan — O(log P), no Schedule — at every P;
  /// every other key materializes its per-op Schedule.
  /// Plan::materialized == (Plan::implicit == null).
  [[nodiscard]] static Plan build_uncached(const PlanKey& key);

  [[nodiscard]] PlanCache& cache() { return cache_; }
  [[nodiscard]] const PlanCache& cache() const { return cache_; }

  /// Builder invocations so far.  The concurrency tests assert this equals
  /// the number of distinct keys requested, however many threads raced.
  [[nodiscard]] std::uint64_t builds() const {
    return builds_.load(std::memory_order_relaxed);
  }

  /// The process-wide planner api::Communicator instances share by
  /// default, so every communicator on the same machine signature reuses
  /// one plan cache.
  [[nodiscard]] static const std::shared_ptr<Planner>& shared_default();

  /// The `planner="<id>"` label value this instance's cache gauges carry in
  /// the global metrics registry.
  [[nodiscard]] int telemetry_id() const { return telemetry_id_; }

 private:
  void register_metrics();

  PlanCache cache_;
  std::atomic<std::uint64_t> builds_{0};
  std::mutex inflight_mu_;
  std::unordered_map<PlanKey, std::shared_future<PlanPtr>, PlanKeyHash>
      inflight_;
  int telemetry_id_ = 0;
  obs::Counter* dedup_waits_ = nullptr;  ///< shared across planners
  /// (name, labels) of the callback gauges to unregister on destruction.
  std::vector<std::pair<std::string, std::string>> callback_metrics_;
};

}  // namespace logpc::runtime
