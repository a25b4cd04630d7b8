#include "runtime/planner.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "baselines/bcast_baselines.hpp"
#include "baselines/kitem_baselines.hpp"
#include "bcast/all_to_all.hpp"
#include "bcast/combining.hpp"
#include "bcast/hierarchical.hpp"
#include "bcast/kitem.hpp"
#include "bcast/kitem_buffered.hpp"
#include "bcast/reduction.hpp"
#include "bcast/single_item.hpp"
#include "obs/trace_recorder.hpp"
#include "runtime/implicit_plan.hpp"
#include "sched/metrics.hpp"
#include "sum/summation_tree.hpp"

namespace logpc::runtime {

namespace {

/// The per-problem build-latency histogram — registry lookup per call is
/// fine here: this runs once per cache miss, next to a schedule build.
obs::Histogram& build_latency_hist(Problem problem) {
  return obs::MetricsRegistry::global().histogram(
      "logpc_planner_build_latency_ns", obs::default_latency_buckets_ns(),
      "Wall-clock nanoseconds spent building one plan, by problem",
      "problem=\"" + std::string(problem_name(problem)) + "\"");
}

/// Scatter: item d leaves the root in destination order, serialized by g
/// (any order is optimal — every message crosses the root's send port).
Schedule build_scatter(const Params& params, ProcId root) {
  Schedule s(params, params.P);
  for (ProcId d = 0; d < params.P; ++d) s.add_initial(d, root, 0);
  Time start = 0;
  for (ProcId d = 0; d < params.P; ++d) {
    if (d == root) continue;
    s.add_send(start, root, d, d);
    start += params.g;
  }
  s.sort();
  return s;
}

/// Gather: the scatter pattern reversed — senders staggered so arrivals at
/// the root land exactly g apart.
Schedule build_gather(const Params& params, ProcId root) {
  Schedule s(params, params.P);
  for (ProcId p = 0; p < params.P; ++p) s.add_initial(p, p, 0);
  Time start = 0;
  for (ProcId p = 0; p < params.P; ++p) {
    if (p == root) continue;
    s.add_send(start, p, root, p);
    start += params.g;
  }
  s.sort();
  return s;
}

/// Completion of the serialized port schedules above: P-2 gaps after the
/// first send, then one full transfer.
Time port_schedule_completion(const Params& params) {
  if (params.P == 1) return 0;
  return (params.P - 2) * params.g + params.transfer_time();
}

/// The method label an implicit-only build stamps — identical strings to
/// the materialized switch, so representation never shows in diagnostics.
std::string implicit_method(Problem problem) {
  switch (problem) {
    case Problem::kBroadcast:
      return "optimal tree (Thm 2.1)";
    case Problem::kReduce:
      return "reversed optimal tree (Sec 4.2)";
    case Problem::kBinomialBroadcast:
      return "binomial tree";
    case Problem::kBinaryBroadcast:
      return "binary tree";
    case Problem::kChainBroadcast:
      return "linear chain";
    default:
      return {};
  }
}

}  // namespace

Planner::Planner(Options options)
    : options_(validated(options)),
      cache_(options_.cache_capacity, options_.cache_shards) {
  register_metrics();
}

Planner::Options Planner::validated(const Options& options) {
  if (options.cache_capacity < 1) {
    throw std::invalid_argument(
        "Planner: cache_capacity must be >= 1 (an uncacheable planner "
        "would rebuild every plan; use build_uncached directly instead)");
  }
  if (options.cache_shards < 1) {
    throw std::invalid_argument("Planner: cache_shards must be >= 1");
  }
  if (options.materialize_threshold < 1) {
    throw std::invalid_argument(
        "Planner: materialize_threshold must be >= 1 (problems without an "
        "implicit form materialize regardless, so 0 is not 'never')");
  }
  return options;
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
  // No readers can remain once the destructor runs; free the memo list.
  const TunedMemo* m = tuned_memo_.load(std::memory_order_acquire);
  while (m != nullptr) {
    const TunedMemo* next = m->next;
    delete m;
    m = next;
  }
}

PlanPtr Planner::plan(Problem problem, const Params& params, std::int64_t k,
                      ProcId root) {
  return plan(PlanKey::make(problem, params, k, root));
}

void Planner::set_decision_table(
    std::shared_ptr<const tune::DecisionTable> table) {
  const std::scoped_lock lock(table_mu_);
  if (table_current_) table_retired_.push_back(std::move(table_current_));
  table_current_ = std::move(table);
  table_view_.store(table_current_.get(), std::memory_order_release);
}

std::shared_ptr<const tune::DecisionTable> Planner::decision_table() const {
  const std::scoped_lock lock(table_mu_);
  return table_current_;
}

PlanKey Planner::tuned_key(tune::Collective collective, const Params& params,
                           std::size_t bytes, ProcId root) const {
  if (const tune::DecisionTable* table =
          table_view_.load(std::memory_order_acquire)) {
    if (const tune::Decision* d = table->find(collective, params.P, bytes)) {
      switch (d->problem) {
        case Problem::kKItemBroadcast:
          // The segmented pipeline: the kitem key's root normalizes to 0;
          // the executable lowering relabels for other roots
          // (Communicator::compile's convention).
          return PlanKey::segmented_broadcast(params, d->segments);
        case Problem::kHierarchicalBroadcast:
          return PlanKey::make(Problem::kHierarchicalBroadcast, params, 1,
                               root, 0, d->clusters, d->cross_L, d->cross_o,
                               d->cross_g);
        default:
          return PlanKey::make(d->problem, params, 1, root);
      }
    }
  }
  // Untuned machine (or no table): the paper's optimal tree.
  return PlanKey::broadcast(params, root);
}

PlanPtr Planner::plan_tuned(tune::Collective collective, const Params& params,
                            std::size_t bytes, ProcId root) {
  // Warm path: the memo walk.  The table pointer is part of the match, so
  // installing or clearing a table invalidates stale bindings implicitly.
  const tune::DecisionTable* table =
      table_view_.load(std::memory_order_acquire);
  const int size_class = tune::size_class_of(bytes);
  int depth = 0;
  for (const TunedMemo* m = tuned_memo_.load(std::memory_order_acquire);
       m != nullptr; m = m->next, ++depth) {
    if (m->table == table && m->size_class == size_class &&
        m->root == root && m->collective == collective &&
        m->params == params) {
      return m->plan;
    }
  }
  PlanPtr resolved = plan(tuned_key(collective, params, bytes, root));
  if (depth < kTunedMemoCap) {
    auto* node = new TunedMemo{table,      collective, params, root,
                               size_class, resolved,   nullptr};
    const TunedMemo* head = tuned_memo_.load(std::memory_order_relaxed);
    do {
      node->next = head;
    } while (!tuned_memo_.compare_exchange_weak(head, node,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
  }
  return resolved;
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
    // Past the threshold, implicit-capable plans skip the O(P) IR build
    // and are cached as O(log P) generator entries.
    const bool materialize = !ImplicitPlan::supports(key) ||
                             key.params.P <= options_.materialize_threshold;
    PlanPtr plan;
    {
      obs::Span span("planner.build", "planner");
      if (span.active()) span.set_arg(key.to_string());
      const obs::ScopedTimer timer(build_latency_hist(key.problem));
      plan = std::make_shared<const Plan>(build_uncached(key, materialize));
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

Plan Planner::build_uncached(const PlanKey& key, bool materialize) {
  if (key.mask != 0) {
    // Degraded membership (the recovery layer re-planning around dead
    // ranks): build on the compacted machine of the survivors — the
    // paper's constructions are universal in P, so the plan over the
    // live_count() processors is itself optimal — then stamp the masked
    // key back on.  Plan processor i is physical rank live_ranks()[i]; the
    // caller (api::Communicator::run_broadcast_ft) owns that mapping.
    // Like `schedule`, the attached `implicit` describes the *compact*
    // machine — the form runtime::implicit_form derives for the masked key.
    Plan plan = build_uncached(key.compacted(), materialize);
    plan.key = key;
    return plan;
  }
  const Params& m = key.params;
  const int k = static_cast<int>(key.k);
  Plan plan;
  plan.key = key;
  plan.implicit = implicit_form(key);
  if (!materialize) {
    if (!plan.implicit) {
      throw std::invalid_argument(
          "Planner::build_uncached: no implicit form for " + key.to_string());
    }
    plan.materialized = false;
    plan.completion = plan.implicit->completion();
    plan.method = implicit_method(key.problem);
    return plan;
  }
  switch (key.problem) {
    case Problem::kBroadcast:
      plan.schedule = bcast::optimal_single_item(m, key.root);
      plan.completion = bcast::B_of_P(m, m.P);
      plan.method = "optimal tree (Thm 2.1)";
      break;
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
    case Problem::kBufferedKItemBroadcast: {
      auto r = bcast::kitem_buffered(m.P, m.L, k);
      plan.schedule = std::move(r.schedule);
      plan.completion = r.completion;
      plan.max_buffer_depth = r.max_buffer_depth;
      plan.method = "buffered (Thm 3.8)";
      break;
    }
    case Problem::kScatter:
      plan.schedule = build_scatter(m, key.root);
      plan.completion = port_schedule_completion(m);
      plan.method = "serialized send port";
      break;
    case Problem::kGather:
      plan.schedule = build_gather(m, key.root);
      plan.completion = port_schedule_completion(m);
      plan.method = "serialized receive port";
      break;
    case Problem::kReduce: {
      auto r = bcast::optimal_reduction(m, key.root);
      plan.schedule = std::move(r.schedule);
      plan.completion = r.completion;
      plan.method = "reversed optimal tree (Sec 4.2)";
      break;
    }
    case Problem::kSummation: {
      const Time t =
          sum::min_time_for_operands(m, static_cast<Count>(key.k));
      const auto r = sum::optimal_summation(m, t);
      plan.schedule = r.timing_view();
      plan.completion = r.t;
      plan.total_operands = r.total_operands;
      plan.method = "reversed (L+1) tree (Sec 5)";
      break;
    }
    case Problem::kAllToAll:
      plan.schedule = bcast::all_to_all_k(m, k);
      plan.completion = bcast::all_to_all_lower_bound(m, k);
      plan.method = "rotation (Sec 4.1)";
      break;
    case Problem::kAllToAllPersonalized:
      plan.schedule = bcast::all_to_all_personalized(m);
      plan.completion = bcast::all_to_all_lower_bound(m);
      plan.method = "rotation, personalized";
      break;
    case Problem::kAllReduce: {
      const Time T = bcast::combining_time_for(m.P, m.L);
      // Note: the Theorem 4.1 ring runs on f_T >= P slots, so the stored
      // schedule's machine may be larger than the key's (see
      // Communicator::allreduce for the padding convention).
      plan.schedule = bcast::combining_broadcast(T, m.L).timing_view();
      plan.completion = T;
      plan.method = "combining broadcast (Thm 4.1)";
      break;
    }
    case Problem::kBinomialBroadcast: {
      const auto tree = baselines::binomial_tree(m, m.P);
      plan.schedule = tree.to_schedule(key.root);
      plan.completion = tree.makespan();
      plan.method = "binomial tree";
      break;
    }
    case Problem::kBinaryBroadcast: {
      const auto tree = baselines::binary_tree(m, m.P);
      plan.schedule = tree.to_schedule(key.root);
      plan.completion = tree.makespan();
      plan.method = "binary tree";
      break;
    }
    case Problem::kChainBroadcast: {
      const auto tree = baselines::linear_chain(m, m.P);
      plan.schedule = tree.to_schedule(key.root);
      plan.completion = tree.makespan();
      plan.method = "linear chain";
      break;
    }
    case Problem::kFlatBroadcast: {
      const auto tree = baselines::flat_tree(m, m.P);
      plan.schedule = tree.to_schedule(key.root);
      plan.completion = tree.makespan();
      plan.method = "flat tree";
      break;
    }
    case Problem::kSerializedKItem:
      plan.schedule = baselines::serialized_broadcast(m, k);
      plan.completion = completion_time(plan.schedule);
      plan.method = "serialized optimal";
      break;
    case Problem::kPipelinedBinaryKItem:
      plan.schedule = baselines::pipelined_tree_broadcast(
          baselines::binary_tree(m, m.P), k);
      plan.completion = completion_time(plan.schedule);
      plan.method = "pipelined binary tree";
      break;
    case Problem::kPipelinedChainKItem:
      plan.schedule = baselines::pipelined_tree_broadcast(
          baselines::linear_chain(m, m.P), k);
      plan.completion = completion_time(plan.schedule);
      plan.method = "pipelined chain";
      break;
    case Problem::kHierarchicalBroadcast: {
      // Note the stored schedule's machine is HierParams::flat(), not the
      // key's intra class — the conservative projection hierarchical
      // schedules are stated on (see bcast/hierarchical.hpp).
      auto r = bcast::hierarchical_broadcast(key.hier_params(), key.root);
      plan.schedule = std::move(r.schedule);
      plan.completion = r.completion;
      plan.method = "two-level hierarchical (cluster-aware greedy broadcast)";
      break;
    }
  }
  return plan;
}

const std::shared_ptr<Planner>& Planner::shared_default() {
  static const std::shared_ptr<Planner> planner = std::make_shared<Planner>();
  return planner;
}

}  // namespace logpc::runtime
