/// Experiment T41b - Section 4.2 / Theorem 4.1: all-to-all broadcast with
/// combining takes no longer than all-to-one reduction (B(P) steps for
/// P = P(T)), vs the naive reduce-then-broadcast at ~2x.

#include "bench_util.hpp"

#include <numeric>

#include "bcast/combining.hpp"
#include "validate/checker.hpp"

namespace {

using namespace logpc;
using logpc::bench::Table;

void report() {
  logpc::bench::section(
      "Theorem 4.1: combining broadcast in T = B(P) steps (postal)");
  Table t({"L", "T", "P = f_T", "all hold total", "timing valid",
           "reduce+bcast (2x)"});
  for (const Time L : {1, 2, 3, 5, 8}) {
    for (Time T = L + 2; T <= L + 6; ++T) {
      const auto cs = bcast::combining_broadcast(T, L);
      if (cs.params.P > 600) break;
      std::vector<long long> vals(static_cast<std::size_t>(cs.params.P));
      std::iota(vals.begin(), vals.end(), 1);
      const auto out = bcast::execute_combining<long long>(
          cs, vals, [](const long long& a, const long long& b) {
            return a + b;
          });
      const long long total =
          static_cast<long long>(cs.params.P) * (cs.params.P + 1) / 2;
      const bool all = std::all_of(out.begin(), out.end(),
                                   [&](long long v) { return v == total; });
      const bool valid = validate::is_valid(
          cs.timing_view(),
          {.forbid_duplicate_receive = false, .require_complete = false});
      t.row(L, T, cs.params.P, logpc::bench::ok(all),
            logpc::bench::ok(valid), 2 * T);
    }
  }
  t.print();
  std::cout << "shape: the combining broadcast (allreduce) finishes in T =\n"
               "B(P) steps - exactly the reduction time and half of the\n"
               "naive reduce-then-broadcast.\n";

  logpc::bench::section("window invariant (proof of Theorem 4.1)");
  // At time j, processor i holds x[i - f_j + 1 : i]; verify at j = T via
  // non-commutative concatenation on a medium instance.
  const Time L = 3;
  const Time T = 9;
  const auto cs = bcast::combining_broadcast(T, L);
  std::vector<std::string> vals;
  for (int i = 0; i < cs.params.P; ++i) {
    vals.push_back(std::string("x").append(std::to_string(i)).append("."));
  }
  const auto out = bcast::execute_combining<std::string>(
      cs, vals,
      [](const std::string& a, const std::string& b) { return a + b; });
  bool windows = true;
  for (int i = 0; i < cs.params.P; ++i) {
    std::string expected;
    for (int j = 1; j <= cs.params.P; ++j) {
      expected += "x";
      expected += std::to_string((i + j) % cs.params.P);
      expected += ".";
    }
    windows = windows && out[static_cast<std::size_t>(i)] == expected;
  }
  Table w({"check", "result"});
  w.row("every processor ends with its full cyclic window",
        logpc::bench::ok(windows));
  w.print();
}

void BM_CombiningConstruct(benchmark::State& state) {
  const Time T = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bcast::combining_broadcast(T, 3));
  }
}
BENCHMARK(BM_CombiningConstruct)->Arg(9)->Arg(13)->Arg(17);

void BM_CombiningExecute(benchmark::State& state) {
  const auto cs = bcast::combining_broadcast(state.range(0), 3);
  std::vector<long long> vals(static_cast<std::size_t>(cs.params.P), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bcast::execute_combining<long long>(
        cs, vals,
        [](const long long& a, const long long& b) { return a + b; }));
  }
}
BENCHMARK(BM_CombiningExecute)->Arg(9)->Arg(13);

}  // namespace

LOGPC_BENCH_MAIN(report)
