/// Experiment F4 - Figure 4: the reception table of one block, L = 5,
/// r = 7, k = 16.  The paper shows its Theorem 3.7 endgame scheme for a
/// size-7 block; our block-cyclic construction yields a size-7 block for
/// L = 5, t = 11 (P - 1 = f_11 = 11 receivers) and the bench prints that
/// block's members' reception rows: one item per step, each item exactly
/// once, active items on the member currently serving the internal role.

#include "bench_util.hpp"

#include <set>

#include "bcast/continuous.hpp"
#include "sched/metrics.hpp"
#include "validate/checker.hpp"
#include "viz/table.hpp"

namespace {

using namespace logpc;
using logpc::bench::Table;

void report() {
  const Time L = 5;
  const Time t = 11;  // largest block size = t - L + 1 = 7
  const int k = 16;
  logpc::bench::section("Figure 4: reception rows of the size-7 block "
                        "(L=5, r=7, k=16)");
  const auto res = bcast::plan_continuous(L, t);
  if (res.status != bcast::SolveStatus::kSolved) {
    std::cout << "plan FAILED\n";
    return;
  }
  const bcast::ContinuousBlock* block7 = nullptr;
  for (const auto& b : res.plan->blocks) {
    if (b.r == 7) block7 = &b;
  }
  if (block7 == nullptr) {
    std::cout << "no size-7 block found\n";
    return;
  }
  const Schedule s = bcast::emit_k_items(*res.plan, k);

  // Restrict the reception table to the block members.
  Table rows({"member", "receptions (time: item, * = active)"});
  for (int j = 0; j < block7->r; ++j) {
    const ProcId p = block7->members[static_cast<std::size_t>(j)];
    std::string cells;
    for (const auto& op : s.sends()) {
      if (op.to != p) continue;
      const Time at = s.available_at(op);
      const bool active =
          (op.item % block7->r) == j &&
          at == op.item + L + block7->d;  // the internal-role reception
      if (!cells.empty()) cells += " ";
      cells += std::to_string(at);
      cells += ":";
      cells += std::to_string(op.item + 1);
      if (active) cells += "*";
    }
    rows.row(std::string("P")
                 .append(std::to_string(p))
                 .append(" (j=")
                 .append(std::to_string(j))
                 .append(")"),
             cells);
  }
  rows.print();

  logpc::bench::section("paper vs measured");
  Table chk({"property", "paper", "measured", "match"});
  chk.row("block size", 7, block7->r, logpc::bench::ok(block7->r == 7));
  // Each member receives every item exactly once and one per step.
  bool once = true;
  for (int j = 0; j < block7->r; ++j) {
    const ProcId p = block7->members[static_cast<std::size_t>(j)];
    std::set<Time> steps;
    std::set<ItemId> items;
    for (const auto& op : s.sends()) {
      if (op.to != p) continue;
      once = once && steps.insert(s.available_at(op)).second;
      once = once && items.insert(op.item).second;
    }
    once = once && items.size() == static_cast<std::size_t>(k);
  }
  chk.row("each member: k items, one per step, no repeats", "holds",
          once ? "holds" : "violated", logpc::bench::ok(once));
  chk.row("whole schedule valid", "-", validate::check(s).summary(),
          logpc::bench::ok(validate::is_valid(s)));
  chk.row("completion B+L+k-1", t + L + k - 1, completion_time(s),
          logpc::bench::ok(completion_time(s) == t + L + k - 1));
  chk.print();
}

void BM_Fig4Plan(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(bcast::plan_continuous(5, 11));
  }
}
BENCHMARK(BM_Fig4Plan);

}  // namespace

LOGPC_BENCH_MAIN(report)
