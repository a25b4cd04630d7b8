/// Collective planner: the downstream use-case the paper enabled - an MPI-
/// style library choosing its collective algorithm from measured machine
/// parameters.  Given (P, L, o, g) and a message count, the planner prices
/// every strategy in cycles and picks the winner per collective:
///
///   broadcast(1)   optimal LogP tree vs binomial / binary / chain / flat
///   broadcast(k)   block-cyclic pipeline vs serialized vs pipelined trees
///   reduce         reversed optimal tree (Section 5)
///   allreduce      combining broadcast (Theorem 4.1) vs reduce+bcast
///   alltoall       the rotation schedule (Section 4.1)
///
/// The paper's executable collectives (broadcast, k-item, reduce,
/// summation, all-to-all) are priced through the planning runtime
/// (src/runtime): each is a PlanKey resolved by a runtime::Planner, so its
/// schedule is built once, cached, and the cache statistics are printed at
/// the end.  The baselines and the schedule-only constructions (buffered
/// k-item, combining broadcast) are priced by calling their builders
/// directly.  The Section 3 k-item key applies the postal projection
/// L' = L + 2o itself; the direct postal builders get it from `postal`.
///
///   ./collective_planner [P] [L] [o] [g] [k]

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/bcast_baselines.hpp"
#include "baselines/kitem_baselines.hpp"
#include "bcast/combining.hpp"
#include "bcast/kitem_buffered.hpp"
#include "bcast/tree.hpp"
#include "runtime/planner.hpp"
#include "sched/metrics.hpp"

namespace {

using namespace logpc;
using runtime::PlanKey;
using runtime::Problem;

struct Option {
  std::string name;
  Time cycles;
};

void pick(const std::string& collective, std::vector<Option> options) {
  std::sort(options.begin(), options.end(),
            [](const Option& a, const Option& b) {
              return a.cycles < b.cycles;
            });
  std::cout << collective << ":\n";
  for (std::size_t i = 0; i < options.size(); ++i) {
    std::cout << (i == 0 ? "  -> " : "     ") << std::left << std::setw(28)
              << options[i].name << std::right << std::setw(8)
              << options[i].cycles << " cycles\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Params params{16, 8, 1, 4};
  int k = 8;
  if (argc >= 2) params.P = std::atoi(argv[1]);
  if (argc >= 3) params.L = std::atol(argv[2]);
  if (argc >= 4) params.o = std::atol(argv[3]);
  if (argc >= 5) params.g = std::atol(argv[4]);
  if (argc >= 6) k = std::atoi(argv[5]);
  params.require_valid();
  std::cout << "planning collectives for " << params << ", k = " << k
            << " items\n\n";

  runtime::Planner planner;
  // Price one strategy = resolve its PlanKey and read the completion time.
  // The full schedule rides along in the cache for whoever executes it.
  const auto price = [&](Problem problem, std::int64_t items = 1) {
    return planner.plan(problem, params, items, /*root=*/0)->completion;
  };

  // --- single-item broadcast -------------------------------------------
  pick("broadcast (1 item)",
       {{"LogP-optimal tree", price(Problem::kBroadcast)},
        {"binomial tree",
         baselines::binomial_tree(params, params.P).makespan()},
        {"binary tree", baselines::binary_tree(params, params.P).makespan()},
        {"chain", baselines::linear_chain(params, params.P).makespan()},
        {"flat", baselines::flat_tree(params, params.P).makespan()}});

  // --- k-item broadcast (postal pricing: L' = L + 2o, g normalized) ------
  // The Section 3 algorithms are stated in the postal model; they run on
  // the effective per-hop latency L + 2o.
  const Params postal = Params::postal(params.P, params.transfer_time());
  const Time Lp = postal.L;
  pick("broadcast (" + std::to_string(k) + " items, postal pricing)",
       {{"block-cyclic pipeline", price(Problem::kKItemBroadcast, k)},
        {"buffered (Thm 3.8)",
         bcast::kitem_buffered(postal.P, Lp, k).completion},
        {"serialized optimal",
         completion_time(baselines::serialized_broadcast(postal, k))},
        {"pipelined binary",
         completion_time(baselines::pipelined_tree_broadcast(
             baselines::binary_tree(postal, postal.P), k))},
        {"pipelined chain",
         completion_time(baselines::pipelined_tree_broadcast(
             baselines::linear_chain(postal, postal.P), k))},
        {"Bar-Noy/Kipnis (stated)",
         baselines::bnk_stated_time(params.P, Lp, k)}});

  // --- reduction ---------------------------------------------------------
  {
    std::vector<Option> options{
        {"reversed optimal tree", price(Problem::kReduce)}};
    if (params.g >= params.o + 1) {
      // One operand per processor; Section 5 requires g >= o + 1.
      options.push_back(
          {"summation schedule (Sec 5)",
           price(Problem::kSummation, params.P)});
    }
    pick("reduce (one value per processor)", std::move(options));
  }

  // --- allreduce ----------------------------------------------------------
  const Time combine_T = bcast::combining_time_for(postal.P, Lp);
  pick("allreduce (postal pricing)",
       {{"combining broadcast (Thm 4.1)", combine_T},
        {"reduce + broadcast", 2 * combine_T}});

  // --- all-to-all ----------------------------------------------------------
  pick("alltoall",
       {{"rotation schedule (Sec 4.1)", price(Problem::kAllToAll)},
        {"naive P broadcasts",
         static_cast<Time>(params.P) * bcast::B_of_P(params, params.P)}});

  // A second pass over the same machine is free: every key hits the cache.
  for (const Problem p :
       {Problem::kBroadcast, Problem::kKItemBroadcast, Problem::kReduce}) {
    (void)price(p, p == Problem::kKItemBroadcast ? k : 1);
  }
  const runtime::CacheStats stats = planner.cache().stats();
  std::cout << "\nplan cache: " << stats.entries << " plans, "
            << planner.builds() << " builds, " << stats.hits << " hits\n";

  std::cout << "\n(the optimal entries are exact LogP cycle counts from the\n"
            << " constructions in this library; baselines are priced on the\n"
            << " same rules)\n";
  return 0;
}
