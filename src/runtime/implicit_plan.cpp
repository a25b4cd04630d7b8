#include "runtime/implicit_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "bcast/tree.hpp"

namespace logpc::runtime {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("ImplicitPlan: " + what);
}

void check_node(std::int64_t node, std::int64_t P, const char* where) {
  if (node < 0 || node >= P) {
    throw std::out_of_range(std::string("ImplicitPlan::") + where +
                            ": node out of range");
  }
}

/// The construction label each implicit family's plan carries.
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
      fail("no implicit form");  // unreachable: supports() screened
  }
}

}  // namespace

bool ImplicitPlan::supports(const PlanKey& key) {
  if (key.mask != 0) return false;  // implicit_only_plan compacts first
  switch (key.problem) {
    case Problem::kBroadcast:
    case Problem::kReduce:
    case Problem::kBinomialBroadcast:
    case Problem::kBinaryBroadcast:
    case Problem::kChainBroadcast:
      return true;
    default:
      return false;
  }
}

ImplicitPlan ImplicitPlan::build(const PlanKey& key) {
  if (!supports(key)) fail("no implicit form for " + key.to_string());
  key.params.require_valid();
  ImplicitPlan plan;
  plan.key_ = key;
  plan.P_ = key.params.P;
  plan.T_ = key.params.transfer_time();
  plan.g_ = key.params.g;
  switch (key.problem) {
    case Problem::kReduce:
      plan.reverse_ = true;
      [[fallthrough]];
    case Problem::kBroadcast:
      plan.family_ = Family::kOptimal;
      plan.build_optimal_tables();
      break;
    case Problem::kBinomialBroadcast:
      plan.family_ = Family::kBinomial;
      plan.build_binomial_tables();
      break;
    case Problem::kBinaryBroadcast:
      plan.family_ = Family::kBinary;
      plan.completion_ = plan.binary_subtree_max_label(0);
      break;
    case Problem::kChainBroadcast:
      plan.family_ = Family::kChain;
      plan.completion_ = static_cast<Time>(plan.P_ - 1) * plan.T_;
      break;
    default:
      fail("no implicit form");  // unreachable: supports() screened
  }
  return plan;
}

// ---- optimal tree (Section 2) -------------------------------------------
//
// BroadcastTree::optimal materializes the universal tree best-first with
// the tie-break (label, parent index, child rank), so node indices follow
// that total order exactly.  With N(t) nodes of label <= t:
//  * label(n) is the least t with N(t) > n (binary search over cum_);
//  * within label l, nodes split into classes by child rank i, parent
//    label lam = l - T - i*g.  All classes share the send-slot residue
//    (l - T) mod g, and ascending lam = ascending parent index, so the
//    class order is ascending lam and class sizes are N-differences.  The
//    strided table strided_[t] = cnt(t) + strided_[t - g] gives running
//    class totals in O(1), leaving one binary search per decode.

void ImplicitPlan::build_optimal_tables() {
  completion_ = bcast::B_of_P(key_.params, key_.params.P);
  cum_ = bcast::reachable_prefix(key_.params, completion_);
  strided_.resize(cum_.size());
  const auto stride = static_cast<std::size_t>(g_);
  for (std::size_t t = 0; t < cum_.size(); ++t) {
    const Count cnt = cum_[t] - (t == 0 ? Count{0} : cum_[t - 1]);
    strided_[t] = cnt + (t >= stride ? strided_[t - stride] : Count{0});
  }
}

Count ImplicitPlan::nodes_through(Time t) const {
  if (t < 0) return 0;
  return cum_[static_cast<std::size_t>(t)];
}

Time ImplicitPlan::label_of_index(std::int64_t node) const {
  const auto it = std::upper_bound(cum_.begin(), cum_.end(),
                                   static_cast<Count>(node));
  return static_cast<Time>(it - cum_.begin());
}

ImplicitPlan::OptParent ImplicitPlan::optimal_parent(std::int64_t node) const {
  OptParent out;
  out.label = label_of_index(node);
  if (node == 0) return out;
  const Time ell = out.label;
  const Count j = static_cast<Count>(node) - nodes_through(ell - 1);
  const Time i_max = (ell - T_) / g_;
  const Time lam_min = ell - T_ - i_max * g_;
  // Least class label lam whose running total strided_[lam] exceeds j.
  Time lo = 0;
  Time hi = i_max;
  while (lo < hi) {
    const Time mid = lo + (hi - lo) / 2;
    if (strided_[static_cast<std::size_t>(lam_min + mid * g_)] > j) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const Time lam = lam_min + lo * g_;
  const Count preceding =
      lam >= g_ ? strided_[static_cast<std::size_t>(lam - g_)] : Count{0};
  out.rank = static_cast<int>((ell - T_ - lam) / g_);
  out.parent =
      static_cast<std::int64_t>(nodes_through(lam - 1) + (j - preceding));
  return out;
}

// ---- binomial tree (baselines::binomial_tree) ---------------------------
//
// The halving construction assigns indices in BFS order, and within the
// tree each node's children are created rank-0-first, so index order is
// (depth, lexicographic rank path).  Every subtree size along any peel
// chain lies in {floor(P/2^h), ceil(P/2^h)} — at most two per depth — so
// desc_ (depth-k descendant counts per reachable size) stays O(log^2 P)
// and index <-> path conversion is combinatorial counting over it.

std::vector<int> ImplicitPlan::binomial_child_sizes(int size) {
  std::vector<int> out;
  int rest = size;
  while (rest > 1) {
    const int half = rest / 2;
    out.push_back(half);
    rest -= half;
  }
  return out;
}

std::int64_t ImplicitPlan::binomial_descendants(int size, int depth) const {
  const auto& counts = desc_.at(size);
  if (depth < 0 || depth >= static_cast<int>(counts.size())) return 0;
  return counts[static_cast<std::size_t>(depth)];
}

void ImplicitPlan::build_binomial_tables() {
  const auto P = static_cast<int>(P_);
  // Reachable subtree sizes, smallest first so children resolve before
  // their parents in the per-depth sweeps below.
  std::vector<int> pending{P};
  while (!pending.empty()) {
    const int s = pending.back();
    pending.pop_back();
    if (desc_.find(s) != desc_.end()) continue;
    desc_.emplace(s, std::vector<std::int64_t>{});
    for (const int c : binomial_child_sizes(s)) {
      if (desc_.find(c) == desc_.end()) pending.push_back(c);
    }
  }
  std::vector<int> sizes;
  sizes.reserve(desc_.size());
  for (const auto& [s, counts] : desc_) sizes.push_back(s);
  std::sort(sizes.begin(), sizes.end());

  for (const int s : sizes) desc_[s].push_back(1);  // depth 0: the node
  max_depth_ = 0;
  for (int k = 1;; ++k) {
    for (const int s : sizes) {
      std::int64_t total = 0;
      for (const int c : binomial_child_sizes(s)) {
        total += binomial_descendants(c, k - 1);
      }
      desc_[s].push_back(total);
    }
    if (binomial_descendants(P, k) == 0) break;
    max_depth_ = k;
  }

  level_start_.assign(1, 0);
  for (int d = 0; d <= max_depth_; ++d) {
    level_start_.push_back(level_start_.back() + binomial_descendants(P, d));
  }
  if (level_start_.back() != P_) fail("binomial level counts do not sum to P");

  // Completion = max label, by the same size-collapsed DP.
  std::unordered_map<int, Time> max_label;
  for (const int s : sizes) {
    Time m = 0;
    const std::vector<int> cs = binomial_child_sizes(s);
    for (std::size_t j = 0; j < cs.size(); ++j) {
      m = std::max(m, T_ + static_cast<Time>(j) * g_ + max_label[cs[j]]);
    }
    max_label[s] = m;
  }
  completion_ = max_label[P];
}

ImplicitPlan::BinomialPath ImplicitPlan::binomial_decode(
    std::int64_t node) const {
  const auto it =
      std::upper_bound(level_start_.begin(), level_start_.end(), node);
  const int depth = static_cast<int>(it - level_start_.begin()) - 1;
  std::int64_t offset = node - level_start_[static_cast<std::size_t>(depth)];
  BinomialPath path;
  path.depth = depth;
  path.ranks.reserve(static_cast<std::size_t>(depth));
  path.sizes.reserve(static_cast<std::size_t>(depth));
  int size = static_cast<int>(P_);
  for (int e = 0; e < depth; ++e) {
    const std::vector<int> cs = binomial_child_sizes(size);
    int j = 0;
    for (;; ++j) {
      const std::int64_t under = binomial_descendants(cs[static_cast<std::size_t>(j)],
                                                      depth - 1 - e);
      if (offset < under) break;
      offset -= under;
    }
    path.ranks.push_back(j);
    size = cs[static_cast<std::size_t>(j)];
    path.sizes.push_back(size);
  }
  return path;
}

std::int64_t ImplicitPlan::binomial_index(const BinomialPath& path,
                                          int depth) const {
  // Index of the length-`depth` prefix of `path`: level start plus the
  // count of depth-`depth` nodes with a lexicographically smaller path.
  std::int64_t within = 0;
  int size = static_cast<int>(P_);
  for (int e = 0; e < depth; ++e) {
    const std::vector<int> cs = binomial_child_sizes(size);
    const int je = path.ranks[static_cast<std::size_t>(e)];
    for (int j = 0; j < je; ++j) {
      within +=
          binomial_descendants(cs[static_cast<std::size_t>(j)], depth - 1 - e);
    }
    size = cs[static_cast<std::size_t>(je)];
  }
  return level_start_[static_cast<std::size_t>(depth)] + within;
}

// ---- binary tree --------------------------------------------------------

Time ImplicitPlan::binary_subtree_max_label(std::int64_t node) const {
  if (2 * node + 1 >= P_) return 0;
  // Height h: the deepest level whose leftmost descendant exists.
  int h = 0;
  std::int64_t leftmost = node;
  while (2 * leftmost + 1 < P_) {
    leftmost = 2 * leftmost + 1;
    ++h;
  }
  // Perfect subtree: the all-right path (T + g per level) is the maximum.
  std::int64_t rightmost = node;
  for (int k = 0; k < h; ++k) rightmost = 2 * rightmost + 2;
  if (rightmost < P_) return static_cast<Time>(h) * (T_ + g_);
  // A heap's incomplete frontier is a single path, so at most one child
  // recurses past its own perfect check: O(log^2 P) total.
  Time best = binary_subtree_max_label(2 * node + 1);
  if (2 * node + 2 < P_) {
    best = std::max(best, g_ + binary_subtree_max_label(2 * node + 2));
  }
  return T_ + best;
}

// ---- node-space queries -------------------------------------------------

Time ImplicitPlan::label(std::int64_t node) const {
  check_node(node, P_, "label");
  switch (family_) {
    case Family::kOptimal:
      return label_of_index(node);
    case Family::kBinomial: {
      const BinomialPath path = binomial_decode(node);
      Time lab = 0;
      for (const int r : path.ranks) lab += T_ + static_cast<Time>(r) * g_;
      return lab;
    }
    case Family::kBinary: {
      Time lab = 0;
      for (std::int64_t n = node; n != 0; n = (n - 1) / 2) {
        lab += T_ + static_cast<Time>((n - 1) % 2) * g_;
      }
      return lab;
    }
    case Family::kChain:
      return static_cast<Time>(node) * T_;
  }
  return 0;  // unreachable
}

std::int64_t ImplicitPlan::parent(std::int64_t node) const {
  check_node(node, P_, "parent");
  if (node == 0) return -1;
  switch (family_) {
    case Family::kOptimal:
      return optimal_parent(node).parent;
    case Family::kBinomial: {
      const BinomialPath path = binomial_decode(node);
      return binomial_index(path, path.depth - 1);
    }
    case Family::kBinary:
      return (node - 1) / 2;
    case Family::kChain:
      return node - 1;
  }
  return -1;  // unreachable
}

int ImplicitPlan::child_rank(std::int64_t node) const {
  check_node(node, P_, "child_rank");
  if (node == 0) return 0;
  switch (family_) {
    case Family::kOptimal:
      return optimal_parent(node).rank;
    case Family::kBinomial:
      return binomial_decode(node).ranks.back();
    case Family::kBinary:
      return static_cast<int>((node - 1) % 2);
    case Family::kChain:
      return 0;
  }
  return 0;  // unreachable
}

std::int64_t ImplicitPlan::child(std::int64_t node, int rank) const {
  check_node(node, P_, "child");
  if (rank < 0) throw std::out_of_range("ImplicitPlan::child: rank < 0");
  switch (family_) {
    case Family::kOptimal: {
      const Time ell = label_of_index(node);
      const Time c = ell + T_ + static_cast<Time>(rank) * g_;
      if (c > completion_) return -1;  // label beyond B: outside B(P)
      const Count before_classes =
          ell >= g_ ? strided_[static_cast<std::size_t>(ell - g_)] : Count{0};
      const Count idx = nodes_through(c - 1) + before_classes +
                        (static_cast<Count>(node) - nodes_through(ell - 1));
      return idx < static_cast<Count>(P_) ? static_cast<std::int64_t>(idx)
                                          : -1;
    }
    case Family::kBinomial: {
      BinomialPath path = binomial_decode(node);
      const int size = path.depth == 0 ? static_cast<int>(P_)
                                       : path.sizes.back();
      const std::vector<int> cs = binomial_child_sizes(size);
      if (rank >= static_cast<int>(cs.size())) return -1;
      path.ranks.push_back(rank);
      return binomial_index(path, path.depth + 1);
    }
    case Family::kBinary: {
      if (rank > 1) return -1;
      const std::int64_t c = 2 * node + 1 + rank;
      return c < P_ ? c : -1;
    }
    case Family::kChain:
      return (rank == 0 && node + 1 < P_) ? node + 1 : -1;
  }
  return -1;  // unreachable
}

int ImplicitPlan::num_children(std::int64_t node) const {
  check_node(node, P_, "num_children");
  switch (family_) {
    case Family::kOptimal: {
      // Child indices grow with rank (labels do), so presence is a prefix.
      int n = 0;
      while (child(node, n) >= 0) ++n;
      return n;
    }
    case Family::kBinomial: {
      const BinomialPath path = binomial_decode(node);
      const int size = path.depth == 0 ? static_cast<int>(P_)
                                       : path.sizes.back();
      return static_cast<int>(binomial_child_sizes(size).size());
    }
    case Family::kBinary: {
      if (2 * node + 2 < P_) return 2;
      return 2 * node + 1 < P_ ? 1 : 0;
    }
    case Family::kChain:
      return node + 1 < P_ ? 1 : 0;
  }
  return 0;  // unreachable
}

std::vector<std::int64_t> ImplicitPlan::children(std::int64_t node) const {
  const int n = num_children(node);
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(child(node, i));
  return out;
}

// ---- proc mapping and per-rank generation -------------------------------

ProcId ImplicitPlan::proc_of_node(std::int64_t node) const {
  check_node(node, P_, "proc_of_node");
  const ProcId root = key_.root;
  if (node == 0) return root;
  // BroadcastTree::to_schedule: non-root nodes take the remaining procs in
  // index order, skipping the root's id.
  return node <= static_cast<std::int64_t>(root)
             ? static_cast<ProcId>(node - 1)
             : static_cast<ProcId>(node);
}

std::int64_t ImplicitPlan::node_of_proc(ProcId proc) const {
  if (proc < 0 || proc >= key_.params.P) {
    throw std::out_of_range("ImplicitPlan::node_of_proc: proc out of range");
  }
  const ProcId root = key_.root;
  if (proc == root) return 0;
  return proc < root ? static_cast<std::int64_t>(proc) + 1
                     : static_cast<std::int64_t>(proc);
}

RankSchedule ImplicitPlan::rank_schedule(ProcId proc) const {
  RankSchedule rs;
  rs.proc = proc;
  rs.node = node_of_proc(proc);
  const Time lab = label(rs.node);
  rs.parent_node = parent(rs.node);
  rs.child_rank = child_rank(rs.node);
  if (rs.parent_node >= 0) rs.parent = proc_of_node(rs.parent_node);
  const std::vector<std::int64_t> kids = children(rs.node);
  if (!reverse_) {
    rs.informed_at = lab;
    if (rs.parent_node >= 0) {
      // The parent starts this send at its own label + rank*g == lab - T.
      rs.recvs.push_back(SendOp{lab - T_, rs.parent, proc, 0});
    }
    for (std::size_t i = 0; i < kids.size(); ++i) {
      rs.sends.push_back(SendOp{lab + static_cast<Time>(i) * g_, proc,
                                proc_of_node(kids[i]), 0});
    }
  } else {
    // Reversal (Section 4.2): the broadcast send parent->child at tau
    // becomes child->parent at B - label(child); descending child rank is
    // ascending arrival time, and every receive precedes this node's send.
    const Time B = completion_;
    rs.informed_at = B - lab;
    for (std::size_t i = kids.size(); i-- > 0;) {
      const Time child_label = lab + T_ + static_cast<Time>(i) * g_;
      rs.recvs.push_back(
          SendOp{B - child_label, proc_of_node(kids[i]), proc, 0});
    }
    if (rs.parent_node >= 0) {
      rs.sends.push_back(SendOp{B - lab, proc, rs.parent, 0});
    }
  }
  return rs;
}

Schedule ImplicitPlan::to_schedule() const {
  Schedule out(key_.params, 1);
  if (!reverse_) {
    out.add_initial(0, key_.root, 0);
    for (std::int64_t n = 1; n < P_; ++n) {
      out.add_send(label(n) - T_, proc_of_node(parent(n)), proc_of_node(n),
                   0);
    }
  } else {
    for (ProcId p = 0; p < key_.params.P; ++p) out.add_initial(0, p, 0);
    for (std::int64_t n = 1; n < P_; ++n) {
      out.add_send(completion_ - label(n), proc_of_node(n),
                   proc_of_node(parent(n)), 0);
    }
  }
  out.sort();
  return out;
}

std::size_t ImplicitPlan::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += cum_.capacity() * sizeof(Count);
  bytes += strided_.capacity() * sizeof(Count);
  bytes += level_start_.capacity() * sizeof(std::int64_t);
  for (const auto& [size, counts] : desc_) {
    bytes += sizeof(size) + sizeof(counts) +
             counts.capacity() * sizeof(std::int64_t);
  }
  return bytes;
}

std::optional<Plan> implicit_only_plan(const PlanKey& key) {
  const PlanKey compact = key.compacted();
  if (!ImplicitPlan::supports(compact)) return std::nullopt;
  auto form =
      std::make_shared<const ImplicitPlan>(ImplicitPlan::build(compact));
  Plan plan;
  plan.key = key;
  plan.materialized = false;
  plan.completion = form->completion();
  plan.method = implicit_method(key.problem);
  plan.implicit = std::move(form);
  return plan;
}

Schedule plan_schedule(const Plan& plan) {
  if (plan.materialized) return plan.schedule;
  if (!plan.implicit) {
    throw std::logic_error(
        "plan_schedule: implicit-only plan carries no generator");
  }
  return plan.implicit->to_schedule();
}

}  // namespace logpc::runtime
