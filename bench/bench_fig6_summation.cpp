/// Experiment F6 - Figure 6: optimal summation with t = 28, P = 8, L = 5,
/// g = 4, o = 2.  Left: per-processor computation schedule (input-summing
/// chains interleaved with receptions); right: the communication tree (the
/// time reversal of the (L+1, o, g) optimal broadcast tree).

#include "bench_util.hpp"

#include "baselines/reduce_baselines.hpp"
#include "sum/executor.hpp"
#include "sum/lazy.hpp"
#include "validate/checker.hpp"
#include "viz/timeline.hpp"
#include "viz/tree_render.hpp"

namespace {

using namespace logpc;
using logpc::bench::Table;

void report() {
  const Params params{8, 5, 2, 4};
  const Time t = 28;
  logpc::bench::section("Figure 6 (right): reversed communication tree "
                        "(optimal broadcast tree on L+1=6, o=2, g=4)");
  const auto plan = sum::optimal_summation(params, t);
  std::cout << viz::render_tree(plan.reversed_tree);

  logpc::bench::section("Figure 6 (left): per-processor plan");
  Table procs({"proc", "send at", "to", "receptions (start of o+1 window)",
               "local operands"});
  for (const auto& pp : plan.procs) {
    std::string recvs;
    for (std::size_t j = 0; j < pp.recv_times.size(); ++j) {
      if (!recvs.empty()) recvs += " ";
      recvs += std::to_string(pp.recv_times[j]);
      recvs += "<-P";
      recvs += std::to_string(pp.recv_from[j]);
    }
    procs.row(std::string("P").append(std::to_string(pp.proc)), pp.send_time,
              pp.send_to == kNoProc
                  ? std::string("(root)")
                  : std::string("P").append(std::to_string(pp.send_to)),
              recvs, pp.local_operands(params.o));
  }
  procs.print();

  logpc::bench::section("communication timeline (sends/receives only)");
  std::cout << viz::render_timeline(plan.timing_view());

  logpc::bench::section("paper vs measured");
  Table chk({"quantity", "paper", "measured", "match"});
  chk.row("machine", "t=28 P=8 L=5 g=4 o=2", params.to_string() + " t=28",
          "yes");
  chk.row("processors used", 8, plan.procs.size(),
          logpc::bench::ok(plan.procs.size() == 8));
  chk.row("operands summed (Lemma 5.1)", 79, plan.total_operands,
          logpc::bench::ok(plan.total_operands == 79));
  chk.row("lazy plan valid", "-", sum::check_plan(plan).summary(),
          logpc::bench::ok(sum::is_valid_plan(plan)));
  const auto n = static_cast<long long>(plan.total_operands);
  const long long got = sum::execute_iota_sum(plan);
  chk.row("executed sum of 0..n-1", n * (n - 1) / 2, got,
          logpc::bench::ok(got == n * (n - 1) / 2));
  chk.print();

  logpc::bench::section("operand capacity n(t) vs baselines (same machine)");
  Table cmp({"t", "optimal", "binomial", "binary", "chain", "sequential"});
  for (const Time tt : {10, 16, 22, 28, 40, 60}) {
    cmp.row(tt, sum::max_operands(params, tt),
            baselines::binomial_summation(params, tt).total_operands,
            baselines::binary_tree_summation(params, tt).total_operands,
            baselines::chain_summation(params, tt).total_operands,
            baselines::sequential_summation(params, tt).total_operands);
  }
  cmp.print();
}

void BM_OptimalSummationPlan(benchmark::State& state) {
  const Params params{static_cast<int>(state.range(0)), 5, 2, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sum::optimal_summation(params, 200));
  }
}
BENCHMARK(BM_OptimalSummationPlan)->Arg(8)->Arg(64)->Arg(512);

void BM_ExecuteSummation(benchmark::State& state) {
  const Params params{64, 5, 2, 4};
  const auto plan = sum::optimal_summation(params, 200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sum::execute_iota_sum(plan));
  }
}
BENCHMARK(BM_ExecuteSummation);

}  // namespace

LOGPC_BENCH_MAIN(report)
