#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "logp/fib.hpp"
#include "logp/params.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/plan_key.hpp"
#include "sched/schedule.hpp"

/// \file implicit_plan.hpp
/// O(log P)-sized implicit schedules for the regular collectives.
///
/// The direct builders materialize every tree node and every SendOp, so
/// build time and memory grow linearly with P.  For the
/// *regular* trees — the Section 2 optimal tree, its reversal (the
/// Section 4.2 reduction), and the binomial / binary / chain baselines —
/// the whole structure is determined by (P, L, o, g), and any single
/// rank's role can be recovered from the counting recurrences alone
/// (Träff, "Optimal Broadcast Schedules in Logarithmic Time",
/// arXiv:2407.18004).  An ImplicitPlan stores only those recurrence
/// tables — O(B) = O(log P) words for the optimal tree, O(log^2 P) for
/// the binomial — and answers per-node and per-rank queries on demand:
///
///  * optimal tree: the best-first materialization order of
///    `BroadcastTree::optimal` is exactly the total order by
///    (label, parent index, child rank).  With N(t) = reachable(params, t)
///    (the Definition 2.3 node-counting DP; f_t in the postal model) the
///    index -> label map is a binary search over the cumulative table, and
///    within one label the nodes split into per-child-rank classes whose
///    sizes are N-differences — a strided prefix-sum table over send slots
///    (stride g) resolves parent and children in O(log P).
///  * binomial tree: node indices are BFS order = (depth, lexicographic
///    rank path).  Subtree sizes under the halving construction collapse
///    to at most two values per depth, so a small table of depth-k
///    descendant counts per reachable size turns index <-> rank-path
///    conversion into combinatorial counting, O(log^2 P) per query.
///  * binary / chain: closed-form heap / successor arithmetic.
///  * reduce: the same optimal-tree decode, emitted time-reversed
///    (a parent->child send at tau becomes child->parent at B - label).
///
/// Node indices always refer to the deterministic order of the direct
/// builder, so the two agree node by node, schedule by schedule — the
/// property suite asserts equality, and exec::compile_implicit produces the
/// same Program as compile_broadcast / compile_reduction of the direct
/// builder's schedule.  The planner stores these five families in this
/// form alone, at every P (implicit_only_plan).

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

/// Compact generator form of a regular collective plan; immutable and
/// cheap to share.  Build once per PlanKey (the Planner caches it inside
/// the Plan), query from any thread.
class ImplicitPlan {
 public:
  /// True iff `key` has an implicit form: kBroadcast, kReduce,
  /// kBinomialBroadcast, kBinaryBroadcast or kChainBroadcast with full
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

  /// The plan's exact completion cycle: B(P) for the optimal tree and its
  /// reversal, the tree makespan for the baselines.
  [[nodiscard]] Time completion() const { return completion_; }

  /// Heap footprint of the recurrence tables (the whole point: O(log P),
  /// not O(P)).
  [[nodiscard]] std::size_t memory_bytes() const;

  // --- node-space queries ------------------------------------------------
  // Nodes are indexed in the materialized builder's deterministic order;
  // node 0 is the tree root.  All run in O(log P) (O(log^2 P) binomial).

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
  /// (out-degrees of all supported trees are O(log P)).
  [[nodiscard]] RankSchedule rank_schedule(ProcId proc) const;

  /// O(P log P) materialization, equal (by Schedule::operator==) to the
  /// direct builder's schedule for the same key (bcast::optimal_single_item,
  /// bcast::optimal_reduction, baselines::*_tree(...).to_schedule).  For
  /// the validator, the figures and the tests; the request path stays
  /// implicit.
  [[nodiscard]] Schedule to_schedule() const;

 private:
  enum class Family : std::uint8_t { kOptimal, kBinomial, kBinary, kChain };

  ImplicitPlan() = default;

  void build_optimal_tables();
  void build_binomial_tables();
  [[nodiscard]] Time binary_subtree_max_label(std::int64_t node) const;

  // Optimal-tree helpers over the cumulative node-count table.
  [[nodiscard]] Count nodes_through(Time t) const;  ///< N(t); 0 for t < 0
  [[nodiscard]] Time label_of_index(std::int64_t node) const;
  struct OptParent {
    Time label = 0;
    std::int64_t parent = -1;
    int rank = 0;
  };
  /// One decode resolving label, parent index and child rank together.
  [[nodiscard]] OptParent optimal_parent(std::int64_t node) const;

  // Binomial helpers.
  struct BinomialPath {
    int depth = 0;
    std::vector<int> ranks;  ///< rank path from the root, size == depth
    std::vector<int> sizes;  ///< subtree size at each step, size == depth
  };
  [[nodiscard]] static std::vector<int> binomial_child_sizes(int size);
  [[nodiscard]] BinomialPath binomial_decode(std::int64_t node) const;
  [[nodiscard]] std::int64_t binomial_descendants(int size, int depth) const;
  [[nodiscard]] std::int64_t binomial_index(const BinomialPath& path,
                                            int depth) const;

  PlanKey key_;
  Family family_ = Family::kOptimal;
  bool reverse_ = false;  ///< emit time-reversed (kReduce)
  std::int64_t P_ = 1;
  Time T_ = 0;  ///< transfer time L + 2o
  Time g_ = 1;
  Time completion_ = 0;

  // kOptimal / reverse: cumulative node counts of the universal tree,
  // cum_[t] = N(t) for t in [0, B], plus the per-send-slot strided prefix
  // sums strided_[t] = (N(t) - N(t-1)) + strided_[t - g].
  std::vector<Count> cum_;
  std::vector<Count> strided_;

  // kBinomial: descendant counts per reachable subtree size.
  // desc_[size][k] = number of depth-k descendants of a size-`size`
  // subtree root (desc_[s][0] == 1); level_start_[d] = index of the first
  // depth-d node.  At most two sizes per halving depth are reachable, so
  // both tables are O(log^2 P).
  std::unordered_map<int, std::vector<std::int64_t>> desc_;
  std::vector<std::int64_t> level_start_;
  int max_depth_ = 0;
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
