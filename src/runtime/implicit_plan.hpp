#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "logp/fib.hpp"
#include "logp/params.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/plan_key.hpp"
#include "sched/schedule.hpp"

/// \file implicit_plan.hpp
/// O(log P)-sized implicit schedules for the optimal tree and its reversal.
///
/// The direct builders materialize every tree node and every SendOp, so
/// build time and memory grow linearly with P.  The Section 2 optimal tree
/// and its reversal (the Section 4.2 reduction) are determined by
/// (P, L, o, g), and any single rank's role can be recovered from the
/// counting recurrences alone (Träff, "Optimal Broadcast Schedules in
/// Logarithmic Time", arXiv:2407.18004).  An ImplicitPlan stores only
/// those recurrence tables — O(B) = O(log P) words — and answers per-node
/// and per-rank queries on demand:
///
///  * broadcast: the best-first materialization order of
///    `BroadcastTree::optimal` is exactly the total order by
///    (label, parent index, child rank).  With N(t) = reachable(params, t)
///    (the Definition 2.3 node-counting DP; f_t in the postal model) the
///    index -> label map is a binary search over the cumulative table, and
///    within one label the nodes split into per-child-rank classes whose
///    sizes are N-differences — a strided prefix-sum table over send slots
///    (stride g) resolves parent and children in O(log P).
///  * reduce: the same decode, emitted time-reversed (a parent->child send
///    at tau becomes child->parent at B - label).
///
/// Node indices always refer to the deterministic order of the direct
/// builder, so the two agree node by node, schedule by schedule — the
/// property suite asserts equality, and exec::compile_implicit produces the
/// same Program as compile_broadcast / compile_reduction of the direct
/// builder's schedule.  The planner stores both in this form alone, at
/// every P (implicit_only_plan).

namespace logpc::runtime {

/// Everything one rank does under an implicit plan, generated on demand.
/// The ops are exactly the materialized schedule's SendOps touching this
/// rank, in per-rank stream order (receives by payload-available cycle,
/// sends by start cycle).
struct RankSchedule {
  ProcId proc = kNoProc;
  std::int64_t node = 0;          ///< tree-node index (0 = tree root)
  std::int64_t parent_node = -1;  ///< -1 for the tree root
  ProcId parent = kNoProc;        ///< peer proc on the parent link
  int child_rank = 0;             ///< which child of the parent this node is
  /// Broadcast: the cycle the item lands here (0 at the root).  Reduce:
  /// the cycle this rank's accumulator departs (== completion at the root).
  Time informed_at = 0;
  std::vector<SendOp> recvs;  ///< inbound ops (op.to == proc), time order
  std::vector<SendOp> sends;  ///< outbound ops (op.from == proc), time order
};

/// Compact generator form of a broadcast or reduce plan; immutable and
/// cheap to share.  Build once per PlanKey (the Planner caches it inside
/// the Plan), query from any thread.
class ImplicitPlan {
 public:
  /// True iff `key` has an implicit form: kBroadcast or kReduce with full
  /// membership (mask == 0; implicit_only_plan compacts a masked key
  /// first).  Everything else is planned as a materialized Schedule.
  [[nodiscard]] static bool supports(const PlanKey& key);

  /// Builds the O(log P) tables for a supported key.  Throws
  /// std::invalid_argument when !supports(key).
  [[nodiscard]] static ImplicitPlan build(const PlanKey& key);

  [[nodiscard]] const PlanKey& plan_key() const { return key_; }
  [[nodiscard]] const Params& params() const { return key_.params; }
  [[nodiscard]] bool is_reduction() const { return reverse_; }
  [[nodiscard]] std::int64_t num_nodes() const { return P_; }

  /// The plan's exact completion cycle, B(P).
  [[nodiscard]] Time completion() const { return completion_; }

  /// Heap footprint of the recurrence tables (the whole point: O(log P),
  /// not O(P)).
  [[nodiscard]] std::size_t memory_bytes() const;

  // --- node-space queries ------------------------------------------------
  // Nodes are indexed in the materialized builder's deterministic order;
  // node 0 is the tree root.  All run in O(log P).

  /// The node's broadcast delay relative to the root (TreeNode::label).
  [[nodiscard]] Time label(std::int64_t node) const;
  /// Parent node index; -1 for the root.
  [[nodiscard]] std::int64_t parent(std::int64_t node) const;
  /// Which child of its parent this node is (0 = oldest); 0 for the root.
  [[nodiscard]] int child_rank(std::int64_t node) const;
  /// Number of children of `node` inside the P-node tree.
  [[nodiscard]] int num_children(std::int64_t node) const;
  /// Index of the rank-i child, or -1 when that child falls outside the
  /// P-node tree.
  [[nodiscard]] std::int64_t child(std::int64_t node, int rank) const;
  /// All children in rank order (size == num_children(node)).
  [[nodiscard]] std::vector<std::int64_t> children(std::int64_t node) const;

  // --- proc mapping ------------------------------------------------------
  // BroadcastTree::to_schedule's root swap: node 0 maps to the key's root,
  // the rest fill in index order skipping the root's id.

  [[nodiscard]] ProcId proc_of_node(std::int64_t node) const;
  [[nodiscard]] std::int64_t node_of_proc(ProcId proc) const;

  /// The full per-rank instruction pattern: O(log P) time and output size
  /// (the optimal tree's out-degrees are O(log P)).
  [[nodiscard]] RankSchedule rank_schedule(ProcId proc) const;

  /// Every message, one per tree edge, from one walk over nodes 1 .. P-1
  /// (labels advanced, not searched; one parent decode per node): ascending
  /// for a broadcast (each parent's sends in time order), descending for a
  /// reduce (each node's receives in arrival order).
  [[nodiscard]] std::vector<SendOp> sends() const;

  /// O(P log P) materialization, equal (by Schedule::operator==) to the
  /// direct builder's schedule for the same key (bcast::optimal_single_item,
  /// bcast::optimal_reduction).  For the validator, the figures and the
  /// tests; the request path stays implicit.
  [[nodiscard]] Schedule to_schedule() const;

 private:
  ImplicitPlan() = default;

  void build_optimal_tables();

  // Helpers over the cumulative node-count table.
  [[nodiscard]] Count nodes_through(Time t) const;  ///< N(t); 0 for t < 0
  [[nodiscard]] Time label_of_index(std::int64_t node) const;
  struct OptParent {
    std::int64_t parent = -1;
    int rank = 0;
  };
  /// One decode resolving the parent index and child rank of `node`, whose
  /// label is `ell`.
  [[nodiscard]] OptParent optimal_parent(std::int64_t node, Time ell) const;

  PlanKey key_;
  bool reverse_ = false;  ///< emit time-reversed (kReduce)
  std::int64_t P_ = 1;
  Time T_ = 0;  ///< transfer time L + 2o
  Time g_ = 1;
  Time completion_ = 0;

  // Cumulative node counts of the universal tree, cum_[t] = N(t) for t in
  // [0, B], plus the per-send-slot strided prefix sums
  // strided_[t] = (N(t) - N(t-1)) + strided_[t - g].
  std::vector<Count> cum_;
  std::vector<Count> strided_;
};

/// The plan for `key` in its generator form, or nullopt when the key has
/// none.  `implicit` is ImplicitPlan::build of key.compacted(), so a masked
/// key's form describes its compact survivor machine; `completion` and
/// `method` come from that form and `materialized` is false.  This is the
/// only representation an implicit-capable key ever takes:
/// Planner::build_uncached returns exactly this, and load_snapshot rebuilds
/// through it, so a built plan and a loaded one are the same plan whatever
/// P is.
[[nodiscard]] std::optional<Plan> implicit_only_plan(const PlanKey& key);

/// The plan's schedule whatever its representation: a copy of
/// plan.schedule when materialized, otherwise the implicit form
/// materialized on demand (O(P log P) — for the validator, the figures and
/// the tests, not the request path).  Throws std::logic_error for an
/// implicit-only plan without an ImplicitPlan (a corrupt entry).
[[nodiscard]] Schedule plan_schedule(const Plan& plan);

}  // namespace logpc::runtime
