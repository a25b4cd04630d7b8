#include "sum/summation_tree.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace logpc::sum {

namespace {

void require_gap(const Params& params) {
  if (params.g < params.o + 1) {
    throw std::invalid_argument(
        "summation: requires g >= o + 1 (a reception's o+1 cycles must fit "
        "inside one gap)");
  }
}

/// Node counts N(0..min(h, B(P))) of the (L+1, o, g) tree.  For deadline t
/// the optimal plan's participants are its min(N(max(0, t - o)), P) cheapest
/// nodes: a node at label d sums t - d - o operands beyond its reception
/// cost, so one with d > t - o would subtract (the root, label 0, always
/// takes part; with t < o it still sums t + 1 operands alone).
std::vector<Count> reversal_counts(const Params& params, Time h) {
  params.require_valid();
  require_gap(params);
  return bcast::reachable_until(reversal_params(params),
                                static_cast<Count>(params.P), h);
}

/// Lemma 5.1 summed over the `nodes` cheapest nodes of the reversal tree,
/// whose labels add up to `label_sum`, for deadline t: node i sends at
/// t - d_i after k_i receptions, and the receptions are the nodes - 1 tree
/// edges.  Saturates at kSaturated.
Count operands(Count nodes, Count label_sum, Time t, Time o) {
  const Count per_node = static_cast<Count>(t) + 1;
  if (per_node > std::numeric_limits<Count>::max() / nodes) return kSaturated;
  return std::min(kSaturated, nodes * per_node - label_sum -
                                  static_cast<Count>(o + 1) * (nodes - 1));
}

}  // namespace

Schedule SummationPlan::timing_view() const {
  Schedule s(params, 1);
  for (ProcId p = 0; p < params.P; ++p) s.add_initial(0, p, 0);
  for (const auto& pp : procs) {
    if (pp.send_to == kNoProc) continue;
    s.add_send(pp.send_time, pp.proc, pp.send_to, 0);
  }
  s.sort();
  return s;
}

Params reversal_params(const Params& params) {
  return Params{params.P, params.L + 1, params.o, params.g};
}

SummationPlan plan_from_tree(const Params& params, const BroadcastTree& tree,
                             Time t) {
  params.require_valid();
  if (t < 0) throw std::invalid_argument("plan_from_tree: t >= 0");
  require_gap(params);
  if (tree.params() != reversal_params(params)) {
    throw std::invalid_argument(
        "plan_from_tree: tree must be built on reversal_params(params)");
  }
  if (tree.makespan() > t) {
    throw std::invalid_argument("plan_from_tree: tree makespan exceeds t");
  }
  if (tree.size() > params.P) {
    throw std::invalid_argument("plan_from_tree: tree larger than machine");
  }

  SummationPlan plan;
  plan.params = params;
  plan.t = t;
  plan.root = 0;
  plan.reversed_tree = tree;
  const int n_nodes = tree.size();
  plan.procs.resize(static_cast<std::size_t>(n_nodes));

  for (int i = 0; i < n_nodes; ++i) {
    auto& pp = plan.procs[static_cast<std::size_t>(i)];
    pp.proc = static_cast<ProcId>(i);
    const auto& node = tree.node(i);
    pp.send_time = t - node.label;
    pp.send_to =
        node.parent == -1 ? kNoProc : static_cast<ProcId>(node.parent);
    // Receptions: the broadcast send to child rank r at (label + r*g)
    // becomes, reversed, a reception whose o+1 cycles (overhead + one
    // addition) finish exactly at send_time - r*g.  Chronological order
    // puts the highest rank first.
    const auto k = static_cast<Time>(node.children.size());
    for (Time r = k - 1; r >= 0; --r) {
      pp.recv_times.push_back((t - node.label) - r * params.g -
                              (params.o + 1));
      pp.recv_from.push_back(
          static_cast<ProcId>(node.children[static_cast<std::size_t>(r)]));
    }
    plan.total_operands =
        sat_add(plan.total_operands, pp.local_operands(params.o));
  }
  return plan;
}

SummationPlan optimal_summation(const Params& params, Time t) {
  if (t < 0) throw std::invalid_argument("optimal_summation: t >= 0");
  const Count nodes =
      std::min(reversal_counts(params, std::max<Time>(0, t - params.o)).back(),
               static_cast<Count>(params.P));
  return plan_from_tree(
      params,
      BroadcastTree::optimal(reversal_params(params), static_cast<int>(nodes)),
      t);
}

Count max_operands(const Params& params, Time t) {
  if (t < 0) throw std::invalid_argument("max_operands: t >= 0");
  // Every label but the table's last is taken whole.
  const std::vector<Count> N =
      reversal_counts(params, std::max<Time>(0, t - params.o));
  const Count nodes = std::min(N.back(), static_cast<Count>(params.P));
  Count label_sum = 0;
  for (std::size_t u = 1; u < N.size(); ++u) {
    label_sum += u * (std::min(N[u], nodes) - N[u - 1]);
  }
  return operands(nodes, label_sum, t, params.o);
}

Time min_time_for_operands(const Params& params, Count n) {
  if (n < 1 || n > kSaturated) {
    throw std::invalid_argument("min_time_for_operands: 1 <= n <= 2^62");
  }
  const std::vector<Count> N = reversal_counts(params, kNever);
  // Up to t = o the root sums alone, one operand per cycle.
  const Time o = params.o;
  if (n <= static_cast<Count>(o) + 1) return static_cast<Time>(n) - 1;
  // At t = o + h the participants are the nodes with label <= h: all P of
  // them from h = B(P) = N.size() - 1 on.
  const auto P = static_cast<Count>(params.P);
  Count label_sum = 0;
  for (std::size_t h = 1; h < N.size(); ++h) {
    const Count nodes = std::min(N[h], P);
    label_sum += h * (nodes - N[h - 1]);
    const Time t = o + static_cast<Time>(h);
    if (operands(nodes, label_sum, t, o) >= n) return t;
  }
  // Later each cycle adds P operands: the least t with
  // P * (t + 1) - label_sum - (o + 1) * (P - 1) >= n.
  const Count fixed = label_sum + static_cast<Count>(o + 1) * (P - 1);
  return static_cast<Time>((n + fixed + P - 1) / P) - 1;
}

}  // namespace logpc::sum
