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

/// The construction label each implicit plan carries.
std::string implicit_method(Problem problem) {
  return problem == Problem::kReduce ? "reversed optimal tree (Sec 4.2)"
                                     : "optimal tree (Thm 2.1)";
}

}  // namespace

bool ImplicitPlan::supports(const PlanKey& key) {
  // A masked key is not itself supported; implicit_only_plan compacts first.
  return key.mask == 0 && (key.problem == Problem::kBroadcast ||
                           key.problem == Problem::kReduce);
}

ImplicitPlan ImplicitPlan::build(const PlanKey& key) {
  if (!supports(key)) fail("no implicit form for " + key.to_string());
  key.params.require_valid();
  ImplicitPlan plan;
  plan.key_ = key;
  plan.reverse_ = key.problem == Problem::kReduce;
  plan.P_ = key.params.P;
  plan.T_ = key.params.transfer_time();
  plan.g_ = key.params.g;
  plan.build_optimal_tables();
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

ImplicitPlan::OptParent ImplicitPlan::optimal_parent(std::int64_t node,
                                                     Time ell) const {
  OptParent out;
  if (node == 0) return out;
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

// ---- node-space queries -------------------------------------------------

Time ImplicitPlan::label(std::int64_t node) const {
  check_node(node, P_, "label");
  return label_of_index(node);
}

std::int64_t ImplicitPlan::parent(std::int64_t node) const {
  check_node(node, P_, "parent");
  return node == 0 ? -1 : optimal_parent(node, label_of_index(node)).parent;
}

int ImplicitPlan::child_rank(std::int64_t node) const {
  check_node(node, P_, "child_rank");
  return node == 0 ? 0 : optimal_parent(node, label_of_index(node)).rank;
}

std::int64_t ImplicitPlan::child(std::int64_t node, int rank) const {
  check_node(node, P_, "child");
  if (rank < 0) throw std::out_of_range("ImplicitPlan::child: rank < 0");
  const Time ell = label_of_index(node);
  const Time c = ell + T_ + static_cast<Time>(rank) * g_;
  if (c > completion_) return -1;  // label beyond B: outside B(P)
  const Count before_classes =
      ell >= g_ ? strided_[static_cast<std::size_t>(ell - g_)] : Count{0};
  const Count idx = nodes_through(c - 1) + before_classes +
                    (static_cast<Count>(node) - nodes_through(ell - 1));
  return idx < static_cast<Count>(P_) ? static_cast<std::int64_t>(idx) : -1;
}

int ImplicitPlan::num_children(std::int64_t node) const {
  check_node(node, P_, "num_children");
  // Child indices grow with rank (labels do), so presence is a prefix.
  int n = 0;
  while (child(node, n) >= 0) ++n;
  return n;
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

std::vector<SendOp> ImplicitPlan::sends() const {
  std::vector<SendOp> out;
  out.reserve(static_cast<std::size_t>(P_ - 1));
  Time ell = reverse_ ? label_of_index(P_ - 1) : 0;
  for (std::int64_t i = 1; i < P_; ++i) {
    const std::int64_t node = reverse_ ? P_ - i : i;
    while (nodes_through(ell) <= static_cast<Count>(node)) ++ell;
    while (nodes_through(ell - 1) > static_cast<Count>(node)) --ell;
    const ProcId child = proc_of_node(node);
    const ProcId up = proc_of_node(optimal_parent(node, ell).parent);
    // Section 4.2 reversal: parent->child at ell - T, child->parent at B - ell.
    out.push_back(reverse_ ? SendOp{completion_ - ell, child, up, 0}
                           : SendOp{ell - T_, up, child, 0});
  }
  return out;
}

Schedule ImplicitPlan::to_schedule() const {
  Schedule out(key_.params, 1);
  if (reverse_) {
    for (ProcId p = 0; p < key_.params.P; ++p) out.add_initial(0, p, 0);
  } else {
    out.add_initial(0, key_.root, 0);
  }
  for (const SendOp& op : sends()) out.add_send(op);
  out.sort();
  return out;
}

std::size_t ImplicitPlan::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += cum_.capacity() * sizeof(Count);
  bytes += strided_.capacity() * sizeof(Count);
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
