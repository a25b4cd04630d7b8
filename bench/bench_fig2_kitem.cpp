/// Experiment F2 - Figure 2: the L = 3, P = 10 running example.  Top-left:
/// the optimal broadcast tree T9; middle: the continuous-broadcast
/// receiving pattern and legal words; bottom: the complete broadcast
/// schedule for k = 8 values.

#include "bench_util.hpp"

#include <algorithm>

#include "bcast/automaton.hpp"
#include "bcast/continuous.hpp"
#include "bcast/kitem.hpp"
#include "sched/metrics.hpp"
#include "validate/checker.hpp"
#include "viz/table.hpp"
#include "viz/tree_render.hpp"

namespace {

using namespace logpc;
using logpc::bench::Table;

// Plans store letters in ascending-delay order; the paper names them in
// descending order ('a' = the item terminating this step = max delay).
std::string paper_word(const bcast::ContinuousPlan& plan,
                       const bcast::Word& word) {
  const Time max_delay_ = *std::max_element(plan.letter_delays.begin(),
                                            plan.letter_delays.end());
  const auto n = static_cast<int>(plan.letter_delays.size());
  std::string s;
  for (const int l : word) {
    const Time delay = plan.letter_delays[static_cast<std::size_t>(l % n)] +
                       l / n;  // wait variants shift the effective delay
    s.push_back(static_cast<char>('a' + (max_delay_ - delay)));
  }
  return s;
}

void report() {
  logpc::bench::section("Figure 2 (top-left): optimal broadcast tree T9, L=3");
  const auto t9 = bcast::BroadcastTree::optimal(Params::postal(9, 3), 9);
  std::cout << viz::render_tree(t9) << viz::degree_summary(t9) << "\n";

  logpc::bench::section(
      "Figure 2 (middle-right): legal words for the H5 block (automaton)");
  const auto ctx = bcast::WordContext::standard(7, 3, 5, 0);
  std::cout << "legal H5 words:";
  for (const auto& w : bcast::enumerate_legal_words(ctx)) {
    std::cout << " " << bcast::word_to_string(w);
  }
  std::cout << "   (paper: cccc, acab, abca, abbb; supply excludes cccc and"
               " abbb)\n";

  const auto res = bcast::plan_continuous(3, 7);
  if (res.status != bcast::SolveStatus::kSolved) {
    std::cout << "plan_continuous FAILED\n";
    return;
  }
  logpc::bench::section("Figure 2 (middle-left): block words chosen");
  Table words({"block", "size r", "delay d", "word"});
  for (const auto& b : res.plan->blocks) {
    words.row("block@" + std::to_string(b.d), b.r, b.d,
              paper_word(*res.plan, b.word));
  }
  words.row("receive-only", 1, "-",
            paper_word(*res.plan,
                       bcast::Word{res.plan->receive_only_letter}));
  words.print();

  logpc::bench::section("Figure 2 (middle): continuous receiving pattern");
  const auto rows = bcast::reception_pattern(*res.plan);
  Table pattern({"proc", "role delays per step (period)"});
  for (ProcId p = 0; p < res.plan->params.P; ++p) {
    std::string cells;
    for (const Time d : rows[static_cast<std::size_t>(p)]) {
      if (!cells.empty()) cells += " ";
      cells += d < 0 ? std::string("src") : std::to_string(d);
    }
    pattern.row(std::string("P").append(std::to_string(p)), cells);
  }
  pattern.print();

  logpc::bench::section("Figure 2 (bottom): broadcast schedule for 8 values");
  const Schedule s = bcast::emit_k_items(*res.plan, 8);
  std::cout << viz::reception_table(s);

  logpc::bench::section("paper vs measured");
  const auto bounds = bcast::kitem_bounds(10, 3, 8);
  Table t({"quantity", "paper", "measured", "match"});
  t.row("B(9)", 7, bounds.B, logpc::bench::ok(bounds.B == 7));
  t.row("k*", 2, bounds.k_star, logpc::bench::ok(bounds.k_star == 2));
  t.row("Thm 3.1 lower bound", 15, bounds.general_lower,
        logpc::bench::ok(bounds.general_lower == 15));
  t.row("per-item delay L+B(9)", 10, max_delay(s),
        logpc::bench::ok(max_delay(s) == 10));
  t.row("single-sending completion", 17, completion_time(s),
        logpc::bench::ok(completion_time(s) == 17));
  t.row("schedule valid", "-", validate::check(s).summary(),
        logpc::bench::ok(validate::is_valid(s)));
  t.row("single-sending", "yes", logpc::bench::ok(is_single_sending(s, 0)),
        logpc::bench::ok(is_single_sending(s, 0)));
  t.print();
}

void BM_PlanContinuousT9(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(bcast::plan_continuous(3, 7));
  }
}
BENCHMARK(BM_PlanContinuousT9);

void BM_EmitKItems(benchmark::State& state) {
  const auto res = bcast::plan_continuous(3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bcast::emit_k_items(*res.plan, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_EmitKItems)->Arg(8)->Arg(64)->Arg(512);

void BM_EnumerateH5Words(benchmark::State& state) {
  const auto ctx = bcast::WordContext::standard(7, 3, 5, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bcast::enumerate_legal_words(ctx));
  }
}
BENCHMARK(BM_EnumerateH5Words);

}  // namespace

LOGPC_BENCH_MAIN(report)
