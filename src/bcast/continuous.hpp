#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bcast/tree.hpp"
#include "bcast/words.hpp"

/// \file continuous.hpp
/// Section 3.1-3.3: continuous broadcast with block-cyclic processor
/// assignments.
///
/// A source generates a new item every step (g = 1); every item must reach
/// all other P - 1 = P(t) processors.  The delay lower bound is L + B(P-1)
/// = L + t, achieved exactly when every item is broadcast along its own
/// copy of the optimal t-step tree and the staggered trees never ask one
/// processor to receive twice (or an item twice) in a step.
///
/// The block-cyclic scheme: each internal tree node of out-degree r gets a
/// block of r processors serving that node round-robin (member j handles
/// items congruent to j mod r); between internal receptions a member
/// receives the leaf roles named by the block's word; one processor is
/// receive-only.  plan_continuous solves the word-assignment problem
/// (words.hpp) over the optimal tree; plan_from_tree runs the same
/// machinery over an arbitrary (e.g. pruned, Theorem 3.5) tree.
/// emit_k_items unrolls a plan into a finite, fully-checkable schedule for
/// k items - which is precisely the paper's optimal-continuous-phase k-item
/// broadcast finishing at L + B(P-1) + k - 1 (Corollary 3.1).  It runs in
/// one pass over the arrival steps, linear in the sends it emits: each
/// letter's consumer slots are built once, buffered receive slots come
/// from one per-cycle table, and since every send of step s starts at
/// s - L and a sender starts at most one send per cycle, each step's sends
/// are listed by sender, already in Schedule::sort() order.

namespace logpc::bcast {

/// One block of the plan.
struct ContinuousBlock {
  int tree_node = 0;             ///< internal node index in `tree`
  int r = 1;                     ///< block size = node out-degree
  Time d = 0;                    ///< node delay
  Word word;                     ///< length r-1
  std::vector<ProcId> members;   ///< size r; member j serves items = j (mod r)
};

/// A complete continuous-broadcast plan.
struct ContinuousPlan {
  Params params;          ///< postal machine, P = (tree size) + 1
  ProcId source = 0;
  BroadcastTree tree;     ///< per-item broadcast tree (root informed at L)
  std::vector<Time> letter_delays;  ///< delay named by each *base* letter
  int max_wait = 0;       ///< word letters may be buffered variants (Thm 3.8)
  std::vector<ContinuousBlock> blocks;
  ProcId receive_only = kNoProc;
  int receive_only_letter = 0;      ///< base letter index

  /// The delay every item achieves: L + (tree makespan).  Equals the lower
  /// bound L + B(P-1) when the tree is the optimal t-step tree; one more
  /// for the Theorem 3.5 pruned trees.
  [[nodiscard]] Time delay() const { return params.L + tree.makespan(); }
};

struct ContinuousResult {
  SolveStatus status = SolveStatus::kInfeasible;
  std::optional<ContinuousPlan> plan;  ///< set iff kSolved
  std::uint64_t nodes_explored = 0;
};

/// Builds the minimum-delay block-cyclic plan for postal latency L and tree
/// depth t (serving P(t) receivers + source).  Returns kInfeasible when the
/// exhaustive word search proves no block-cyclic assignment over the
/// optimal tree exists (the L = 2 situation of Theorem 3.4, and the
/// paper's L = 4, t = 8 remark), kBudgetExhausted when undecided.
[[nodiscard]] ContinuousResult plan_continuous(
    Time L, Time t, std::uint64_t budget = 20'000'000);

/// Runs the block-cyclic solve over an arbitrary broadcast tree (postal,
/// latency L = tree.params().L).  Used by the Theorem 3.5 pruned-tree
/// search to achieve delay L + t + 1 when L = 2, and - with max_wait > 0 -
/// by the Theorem 3.8 buffered construction, where some word positions
/// receive items that have waited in the buffer.
[[nodiscard]] ContinuousResult plan_from_tree(
    const BroadcastTree& tree, std::uint64_t budget = 20'000'000,
    int max_wait = 0);

/// Unrolls the plan for items 0..k-1 (item i is generated at the source at
/// cycle i).  The result is a complete broadcast schedule: every item
/// reaches every processor with delay exactly plan.delay(), so the whole
/// broadcast finishes at plan.delay() + k - 1.  Its sends come sorted.
/// Throws std::invalid_argument for k < 1 or a plan whose processors are
/// not numbered as plan_from_tree numbers them (source, then each block's
/// members in order, then the receive-only processor), and
/// std::logic_error if the plan would make one processor start two sends
/// in one cycle.
[[nodiscard]] Schedule emit_k_items(const ContinuousPlan& plan, int k);

/// The steady-state reception pattern for rendering Figure 2's "Receiving
/// Pattern": rows[proc][x] = role delay received at steps congruent to x
/// modulo the processor's period (block size; 1 for the receive-only
/// processor), or {-1} for the source.
[[nodiscard]] std::vector<std::vector<Time>> reception_pattern(
    const ContinuousPlan& plan);

}  // namespace logpc::bcast
