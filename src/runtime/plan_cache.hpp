#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/plan_key.hpp"
#include "sched/schedule.hpp"
#include "sum/summation_tree.hpp"

/// \file plan_cache.hpp
/// The sharded, thread-safe LRU cache at the heart of the planning runtime.
/// Values are immutable `shared_ptr<const Plan>`: a hit hands back the same
/// plan every concurrent reader holds, eviction never invalidates a plan a
/// caller still uses, and snapshots (snapshot.hpp) store only each
/// entry's key, rebuilding the plan on load.
///
/// Sharding: a key's hash picks one of N independent shards, each with its
/// own mutex, hash map, and LRU list, so concurrent planners on different
/// keys rarely contend.  Capacity is divided evenly across shards, so
/// eviction order is per-shard LRU (global LRU up to shard granularity);
/// construct with num_shards = 1 when exact global LRU order matters.

namespace logpc::runtime {

class ImplicitPlan;

/// An immutable planning result: the canonical key, the schedule, its exact
/// completion, and the scalar by-products the rich builder results carry
/// (so api::Communicator can reconstitute them from a cached plan).
///
/// Exactly one representation per plan, fixed by the key's family:
///  * `implicit` — the O(log P) generator form (implicit_plan.hpp), for
///    every key with one (runtime::implicit_only_plan), at every P;
///  * `schedule` — the materialized per-op IR, for every other key; a
///    summation also keeps the sum::SummationPlan it views (`summation`).
/// So `materialized == (implicit == nullptr)`, and an implicit entry is a
/// few hundred bytes whatever P is.  Use runtime::plan_schedule(plan) when
/// you need a Schedule regardless of representation.
struct Plan {
  PlanKey key;
  Schedule schedule;  ///< empty unless `materialized`
  std::shared_ptr<const ImplicitPlan> implicit;  ///< null iff `materialized`
  std::shared_ptr<const sum::SummationPlan> summation;  ///< kSummation only
  bool materialized = true;  ///< is `schedule` populated?
  Time completion = 0;
  std::string method;        ///< construction label ("block-cyclic", ...)
  int slack = 0;             ///< k-item: extra delay over the optimal
};

using PlanPtr = std::shared_ptr<const Plan>;

/// Point-in-time counter snapshot, aggregated over all shards.
///
/// Only get() moves hits/misses: contains() is a pure predicate that never
/// perturbs recency or ratios (the plan-cache tests assert this), so
/// monitoring code can probe membership without skewing the stats it reads.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;     ///< get() calls that found nothing
  std::uint64_t inserts = 0;    ///< put() calls that added a new key
  std::uint64_t evictions = 0;  ///< entries dropped to respect capacity
  std::size_t entries = 0;      ///< current size
  std::vector<std::size_t> shard_entries;  ///< current size per shard

  /// hits / (hits + misses); 0 before any lookup.
  [[nodiscard]] double hit_ratio() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

class PlanCache {
 public:
  /// \param capacity   total entry budget, split evenly across shards
  ///                   (each shard holds at least one entry).
  /// \param num_shards concurrency width; clamped to [1, capacity].
  explicit PlanCache(std::size_t capacity = 4096, std::size_t num_shards = 8);

  /// The cached plan for `key` (refreshing its recency), or nullptr.
  /// `count_stats = false` skips the hit/miss counters (recency still
  /// refreshes): for internal re-probes that would otherwise double-count
  /// one logical lookup, e.g. the planner's in-flight-lock recheck.
  [[nodiscard]] PlanPtr get(const PlanKey& key, bool count_stats = true);

  /// Inserts (or refreshes) `plan` under `key`, evicting the shard's
  /// least-recently-used entry when full.  `plan` must not be null.
  void put(const PlanKey& key, PlanPtr plan);

  /// True iff `key` is cached; does not touch recency or counters.
  [[nodiscard]] bool contains(const PlanKey& key) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] CacheStats stats() const;

  /// Drops every entry (counters are kept).
  void clear();

  /// All cached plans, shard by shard, most- to least-recently used within
  /// each shard.  A snapshot: concurrent mutation after return is fine.
  [[nodiscard]] std::vector<PlanPtr> entries() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<PlanKey, PlanPtr>> lru;
    std::unordered_map<PlanKey, std::list<std::pair<PlanKey, PlanPtr>>::iterator,
                       PlanKeyHash>
        map;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
  };

  [[nodiscard]] Shard& shard_for(const PlanKey& key) const {
    return *shards_[key.hash() % shards_.size()];
  }

  std::size_t capacity_;
  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace logpc::runtime
