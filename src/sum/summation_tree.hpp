#pragma once

#include <vector>

#include "bcast/tree.hpp"

/// \file summation_tree.hpp
/// Section 5: optimal summation of n operands on a LogP machine.
///
/// A *lazy* summation algorithm (receptions packed as late as possible
/// before the send) corresponds one-to-one with a broadcast algorithm on a
/// machine with latency L+1: reverse the direction and timing of every
/// message (a send at time S becomes a reception at t-S).  The paper shows
/// the communication pattern of optimal summation is the time reversal of
/// the optimal single-item broadcast tree on (L+1, o, g).
///
/// Lemma 5.1 (per-processor form): a processor that sends at time S_i after
/// k_i receptions performs S_i - (o+1)k_i input-summing additions and hence
/// contributes S_i - (o+1)k_i + 1 local operands; every reception costs
/// o + 1 cycles (receive overhead plus one addition).  Maximizing the total
/// means minimizing sum(t - S_i) - i.e. picking the P smallest labels of
/// the universal broadcast tree for (L+1, o, g).
///
/// Requires g >= o + 1, the regime the paper's schedule shape assumes (each
/// reception's o+1 cycles fit in one gap; Figure 6 uses g=4, o=2).

namespace logpc::sum {

using bcast::BroadcastTree;

/// One processor's role in an optimal summation.
struct ProcPlan {
  ProcId proc = kNoProc;
  Time send_time = kNever;  ///< S_i; the root "sends" at t (its final add ends there)
  ProcId send_to = kNoProc; ///< parent processor (kNoProc for the root)
  /// Reception start times, ascending; reception j is followed by one
  /// addition, so it occupies [r, r+o+1).
  std::vector<Time> recv_times;
  /// Processors whose partial sums arrive here, aligned with recv_times.
  std::vector<ProcId> recv_from;
  /// Number of local input operands this processor sums directly:
  /// S_i - (o+1)*k_i + 1.
  [[nodiscard]] Count local_operands(Time o) const {
    return static_cast<Count>(send_time -
                              (o + 1) * static_cast<Time>(recv_times.size())) +
           1;
  }
};

/// A complete optimal summation plan for deadline t.
struct SummationPlan {
  Params params;
  Time t = 0;               ///< deadline: the total sum exists at `root` at t
  ProcId root = 0;
  Count total_operands = 0; ///< n: operands summed by deadline t
  std::vector<ProcPlan> procs;       ///< one per participating processor
  BroadcastTree reversed_tree;       ///< the (L+1, o, g) broadcast tree used

  /// The communication as a standard Schedule (single "item" = the partial
  /// sums; duplicate-receive/complete checks do not apply) for timing
  /// validation: each non-root sends once at its S_i.
  [[nodiscard]] Schedule timing_view() const;
};

/// Reverses ANY broadcast tree built on (L+1, o, g) with makespan <= t into
/// a lazy summation plan on `params` finishing at t: the node informed at
/// label d sends its partial sum at t - d.  This is the paper's reversal
/// argument made executable; optimal_summation applies it to the optimal
/// tree, the baselines in src/baselines apply it to theirs.
[[nodiscard]] SummationPlan plan_from_tree(const Params& params,
                                           const BroadcastTree& tree, Time t);

/// Builds the optimal plan: the maximum-operand summation finishing by
/// cycle t on `params` (uses at most params.P processors; fewer when the
/// (L+1,o,g) broadcast tree has fewer than P nodes with label <= t).
/// Requires params.g >= params.o + 1 and t >= 0.
[[nodiscard]] SummationPlan optimal_summation(const Params& params, Time t);

/// The latency-shifted machine whose broadcast trees correspond to lazy
/// summations on `params` (L+1, same o, g, P).
[[nodiscard]] Params reversal_params(const Params& params);

/// Maximum number of operands summable in t cycles, optimal_summation(t)'s
/// total_operands from the (L+1, o, g) count table alone: its n =
/// min(N_rev(max(0, t - o)), P) participants sum n(t + 1) - (their label
/// sum) - (o + 1)(n - 1) operands (Lemma 5.1).  O(min(t, B_rev(P))).
[[nodiscard]] Count max_operands(const Params& params, Time t);

/// Minimum t with max_operands(params, t) >= n, for 1 <= n <= kSaturated:
/// one pass over the same table while processors join, then a closed form.
[[nodiscard]] Time min_time_for_operands(const Params& params, Count n);

}  // namespace logpc::sum
