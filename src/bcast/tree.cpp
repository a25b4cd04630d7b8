#include "bcast/tree.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace logpc::bcast {

BroadcastTree BroadcastTree::optimal(const Params& params, int P) {
  params.require_valid();
  if (P < 1) throw std::invalid_argument("BroadcastTree::optimal: P >= 1");
  BroadcastTree tree;
  tree.params_ = params;
  tree.nodes_.reserve(static_cast<std::size_t>(P));
  tree.nodes_.push_back(TreeNode{0, -1, 0, {}});
  // Nodes in (label, parent index, child rank) order, label by label: the
  // nodes labelled l are the rank-i children of the nodes labelled
  // lam = l - T - i*g, which hold indices [N(lam - 1), N(lam)); the oldest
  // parents (largest i) come first.
  const std::vector<Count> N = reachable_until(params, static_cast<Count>(P));
  const Time T = params.transfer_time();
  for (Time l = T; tree.size() < P; ++l) {
    for (Time i = (l - T) / params.g; i >= 0 && tree.size() < P; --i) {
      const Time lam = l - T - i * params.g;
      const Count first = lam == 0 ? 0 : N[static_cast<std::size_t>(lam - 1)];
      for (Count p = first;
           p < N[static_cast<std::size_t>(lam)] && tree.size() < P; ++p) {
        const int parent = static_cast<int>(p);
        tree.nodes_[p].children.push_back(tree.size());
        tree.nodes_.push_back(TreeNode{l, parent, static_cast<int>(i), {}});
      }
    }
  }
  return tree;
}

BroadcastTree BroadcastTree::up_to(const Params& params, Time t,
                                   std::size_t max_nodes) {
  params.require_valid();
  if (t < 0) throw std::invalid_argument("BroadcastTree::up_to: t >= 0");
  // optimal() takes an int node count, and `max_nodes` may exceed INT_MAX.
  const Count n = reachable(params, t);
  if (n > std::min<Count>(max_nodes, std::numeric_limits<int>::max())) {
    throw std::invalid_argument("BroadcastTree::up_to: tree too large (" +
                                std::to_string(n) + " nodes)");
  }
  // The n cheapest nodes are exactly those with label <= t.
  return optimal(params, static_cast<int>(n));
}

BroadcastTree BroadcastTree::from_parents(const Params& params,
                                          const std::vector<int>& parents) {
  params.require_valid();
  if (parents.empty() || parents[0] != -1) {
    throw std::invalid_argument("from_parents: parents[0] must be -1");
  }
  BroadcastTree tree;
  tree.params_ = params;
  tree.nodes_.resize(parents.size());
  tree.nodes_[0] = TreeNode{0, -1, 0, {}};
  for (std::size_t i = 1; i < parents.size(); ++i) {
    const int p = parents[i];
    if (p < 0 || static_cast<std::size_t>(p) >= i) {
      throw std::invalid_argument(
          "from_parents: parents must precede children (node " +
          std::to_string(i) + ")");
    }
    auto& parent = tree.nodes_[static_cast<std::size_t>(p)];
    const int rank = static_cast<int>(parent.children.size());
    parent.children.push_back(static_cast<int>(i));
    tree.nodes_[i] =
        TreeNode{params.child_label(parent.label, rank), p, rank, {}};
  }
  return tree;
}

Time BroadcastTree::makespan() const {
  Time m = 0;
  for (const auto& n : nodes_) m = std::max(m, n.label);
  return m;
}

std::map<int, int> BroadcastTree::degree_histogram() const {
  std::map<int, int> hist;
  for (const auto& n : nodes_) ++hist[static_cast<int>(n.children.size())];
  return hist;
}

std::map<Time, int> BroadcastTree::leaf_delay_histogram() const {
  std::map<Time, int> hist;
  for (const auto& n : nodes_) {
    if (n.children.empty()) ++hist[n.label];
  }
  return hist;
}

void BroadcastTree::emit(Schedule& out, ItemId item, Time start,
                         const std::vector<ProcId>& proc_of_node) const {
  if (proc_of_node.size() != nodes_.size()) {
    throw std::invalid_argument("emit: proc_of_node size mismatch");
  }
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const TreeNode& n = nodes_[i];
    const TreeNode& parent = nodes_[static_cast<std::size_t>(n.parent)];
    const Time send_start =
        start + parent.label + static_cast<Time>(n.rank) * params_.g;
    out.add_send(send_start, proc_of_node[static_cast<std::size_t>(n.parent)],
                 proc_of_node[i], item);
  }
}

Schedule BroadcastTree::to_schedule(ProcId source) const {
  if (size() > params_.P) {
    throw std::invalid_argument("to_schedule: tree larger than machine");
  }
  Schedule out(params_, 1);
  out.add_initial(0, source, 0);
  // Nodes are created in label order; map the root to `source` and the rest
  // to the remaining processors in index order.
  std::vector<ProcId> procs(nodes_.size());
  procs[0] = source;
  ProcId next = 0;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (next == source) ++next;
    procs[i] = next++;
  }
  emit(out, 0, 0, procs);
  out.sort();
  return out;
}

Count reachable(const Params& params, Time t) {
  params.require_valid();
  if (t < 0) return 0;
  // N is monotone, so once it saturates it stays there.
  return reachable_until(params, kSaturated, t).back();
}

std::vector<Count> reachable_prefix(const Params& params, Time t) {
  // N never exceeds kSaturated, so this runs through t.
  return reachable_until(params, kSaturated + 1, t);
}

std::vector<Count> reachable_until(const Params& params, Count P, Time t) {
  params.require_valid();
  if (t < 0) throw std::invalid_argument("reachable_until: t >= 0");
  // The root's children from the second on are the same tree one send slot
  // later; the oldest child's subtree is the tree T later.
  const auto T = static_cast<std::size_t>(params.transfer_time());
  const auto g = static_cast<std::size_t>(params.g);
  std::vector<Count> N{1};
  for (std::size_t u = 1; N.back() < P && static_cast<Time>(u) <= t; ++u) {
    N.push_back(sat_add(u >= g ? N[u - g] : 1, u >= T ? N[u - T] : 0));
  }
  return N;
}

Time B_of_P(const Params& params, int P) {
  if (P < 1) throw std::invalid_argument("B_of_P: P >= 1");
  return static_cast<Time>(
             reachable_until(params, static_cast<Count>(P)).size()) -
         1;
}

}  // namespace logpc::bcast
