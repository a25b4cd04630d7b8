#include "runtime/planner.hpp"

#include <array>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "bcast/all_to_all.hpp"
#include "bcast/kitem.hpp"
#include "obs/trace_recorder.hpp"
#include "runtime/implicit_plan.hpp"
#include "sum/summation_tree.hpp"

namespace logpc::runtime {

namespace {

/// Every planner's plan cache: entry budget and lock shards.
constexpr std::size_t kCacheCapacity = 4096;
constexpr std::size_t kCacheShards = 8;

/// The per-problem build-latency histogram, looked up on the problem's first
/// build and kept (nothing unregisters it, and the global registry outlives
/// every planner), so a cache miss takes no registry lock and builds no
/// label string.
obs::Histogram& build_latency_hist(Problem problem) {
  static std::array<std::atomic<obs::Histogram*>, kNumProblems> hists{};
  auto& slot = hists[static_cast<std::size_t>(problem)];
  if (obs::Histogram* hist = slot.load(std::memory_order_acquire)) return *hist;
  obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "logpc_planner_build_latency_ns", obs::default_latency_buckets_ns(),
      "Wall-clock nanoseconds spent building one plan, by problem",
      "problem=\"" + std::string(problem_name(problem)) + "\"");
  slot.store(&hist, std::memory_order_release);
  return hist;
}

}  // namespace

Planner::Planner() : cache_(kCacheCapacity, kCacheShards) {
  register_metrics();
}

void Planner::register_metrics() {
  static std::atomic<int> next_id{0};
  telemetry_id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  auto& reg = obs::MetricsRegistry::global();
  dedup_waits_ =
      &reg.counter("logpc_planner_dedup_waits_total",
                   "plan() calls that waited on another thread's in-flight "
                   "build instead of building or hitting the cache");

  // Cache counters republished as callback gauges: evaluated only at
  // export time, so the cache's hot path carries no extra telemetry cost.
  const std::string labels =
      "planner=\"" + std::to_string(telemetry_id_) + "\"";
  const auto gauge = [&](const std::string& name, const std::string& help,
                         std::function<double()> fn,
                         const std::string& metric_labels) {
    reg.register_callback(name, help, std::move(fn), metric_labels);
    callback_metrics_.emplace_back(name, metric_labels);
  };
  gauge("logpc_plan_cache_hits", "PlanCache::get hits",
        [this] { return static_cast<double>(cache_.stats().hits); }, labels);
  gauge("logpc_plan_cache_misses", "PlanCache::get misses",
        [this] { return static_cast<double>(cache_.stats().misses); }, labels);
  gauge("logpc_plan_cache_inserts", "PlanCache::put insertions",
        [this] { return static_cast<double>(cache_.stats().inserts); }, labels);
  gauge("logpc_plan_cache_evictions", "LRU evictions",
        [this] { return static_cast<double>(cache_.stats().evictions); },
        labels);
  gauge("logpc_plan_cache_entries", "cached plans",
        [this] { return static_cast<double>(cache_.size()); }, labels);
  gauge("logpc_plan_cache_hit_ratio", "hits / lookups since construction",
        [this] { return cache_.stats().hit_ratio(); }, labels);
  gauge("logpc_plan_cache_capacity", "configured entry budget",
        [this] { return static_cast<double>(cache_.capacity()); }, labels);
  gauge("logpc_planner_builds", "schedule builds by this planner",
        [this] { return static_cast<double>(builds()); }, labels);
  gauge("logpc_planner_requests",
        "plan() calls resolved by this planner (cache hits + misses; each "
        "logical lookup is counted exactly once)",
        [this] {
          const CacheStats s = cache_.stats();
          return static_cast<double>(s.hits + s.misses);
        },
        labels);
  for (std::size_t s = 0; s < cache_.num_shards(); ++s) {
    gauge("logpc_plan_cache_shard_entries", "cached plans per shard",
          [this, s] { return static_cast<double>(cache_.stats().shard_entries[s]); },
          labels + ",shard=\"" + std::to_string(s) + "\"");
  }
}

Planner::~Planner() {
  // Callbacks capture `this`; drop them before any member is destroyed.
  // unregister() synchronizes on the registry mutex, so no snapshot can be
  // mid-callback once it returns.
  auto& reg = obs::MetricsRegistry::global();
  for (const auto& [name, labels] : callback_metrics_) {
    reg.unregister(name, labels);
  }
}

PlanPtr Planner::plan(Problem problem, const Params& params, std::int64_t k,
                      ProcId root) {
  return plan(PlanKey::make(problem, params, k, root));
}

PlanPtr Planner::plan(const PlanKey& key) {
  // Warm path: identical to the uninstrumented cache probe.  Request and
  // hit/miss telemetry rides on the cache's own shard counters, which the
  // registry reads only at export time (see register_metrics()).
  if (PlanPtr hit = cache_.get(key)) return hit;

  std::promise<PlanPtr> promise;
  std::shared_future<PlanPtr> result;
  bool builder = false;
  {
    const std::scoped_lock lock(inflight_mu_);
    // Re-probe under the lock: a racing builder may have published between
    // our miss and here (it erases its in-flight entry after caching).
    // Uncounted: the first probe already logged this lookup's miss.
    if (PlanPtr hit = cache_.get(key, /*count_stats=*/false)) return hit;
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
      result = it->second;
    } else {
      result = promise.get_future().share();
      inflight_.emplace(key, result);
      builder = true;
    }
  }
  if (!builder) {
    if (obs::enabled()) dedup_waits_->inc();
    return result.get();  // rethrows the builder's exception
  }

  try {
    builds_.fetch_add(1, std::memory_order_relaxed);
    PlanPtr plan;
    {
      obs::Span span("planner.build", "planner");
      if (span.active()) span.set_arg(key.to_string());
      const obs::ScopedTimer timer(build_latency_hist(key.problem));
      plan = std::make_shared<const Plan>(build_uncached(key));
    }
    cache_.put(key, plan);
    {
      // Publish-then-unregister: a thread missing the in-flight entry from
      // here on finds the plan in the cache.
      const std::scoped_lock lock(inflight_mu_);
      inflight_.erase(key);
    }
    promise.set_value(plan);
    return plan;
  } catch (...) {
    {
      const std::scoped_lock lock(inflight_mu_);
      inflight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

Plan Planner::build_uncached(const PlanKey& key) {
  // The optimal tree and its reversal (masked keys included) are stored in
  // their O(log P) generator form alone, at every P; see implicit_plan.hpp.
  if (std::optional<Plan> plan = implicit_only_plan(key)) {
    return *std::move(plan);
  }
  if (key.mask != 0) {
    // Degraded membership (the recovery layer re-planning around dead
    // ranks): build on the compacted machine of the survivors — the
    // paper's constructions are universal in P, so the plan over the
    // live_count() processors is itself optimal — then stamp the masked
    // key back on.  Plan processor i is physical rank live_ranks()[i]; the
    // caller (api::Communicator::run_broadcast_ft) owns that mapping.
    Plan plan = build_uncached(key.compacted());
    plan.key = key;
    return plan;
  }
  const Params& m = key.params;
  const int k = static_cast<int>(key.k);  // make() bounds it to an int
  Plan plan;
  plan.key = key;
  switch (key.problem) {
    case Problem::kKItemBroadcast: {
      auto r = bcast::kitem_broadcast(m.P, m.L, k);
      plan.schedule = std::move(r.schedule);
      plan.completion = r.completion;
      plan.slack = r.slack;
      plan.method = r.method == bcast::KItemMethod::kContinuousBlockCyclic
                        ? "block-cyclic"
                        : "greedy";
      break;
    }
    case Problem::kSummation: {
      const Time t =
          sum::min_time_for_operands(m, static_cast<Count>(key.k));
      plan.summation = std::make_shared<const sum::SummationPlan>(
          sum::optimal_summation(m, t));
      plan.schedule = plan.summation->timing_view();
      plan.completion = plan.summation->t;
      plan.method = "reversed (L+1) tree (Sec 5)";
      break;
    }
    case Problem::kAllToAll:
      plan.schedule = bcast::all_to_all_k(m, k);
      plan.completion = bcast::all_to_all_lower_bound(m, k);
      plan.method = "rotation (Sec 4.1)";
      break;
    case Problem::kBroadcast:
    case Problem::kReduce:
      throw std::logic_error("Planner::build_uncached: " + key.to_string() +
                             " has an implicit form");  // returned above
  }
  return plan;
}

const std::shared_ptr<Planner>& Planner::shared_default() {
  static const std::shared_ptr<Planner> planner = std::make_shared<Planner>();
  return planner;
}

}  // namespace logpc::runtime
