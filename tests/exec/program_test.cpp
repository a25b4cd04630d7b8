#include "exec/program.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/communicator.hpp"
#include "bcast/reduction.hpp"
#include "exec_test_util.hpp"
#include "runtime/planner.hpp"

/// The compiler against the reference lowering in exec_test_util.hpp: the
/// same Program (links included) for every planned family over the ranges
/// the plan_sweep benchmark compiles, for relabeled and masked plans, and
/// for a hand-built schedule that is out of time order.  Plus the
/// lowering's refusals of sources whose two ends of a message disagree.

namespace logpc::exec {
namespace {

namespace ref = testutil::reference;
using runtime::PlanKey;
using runtime::Problem;

const std::vector<Params>& machines() {
  static const std::vector<Params> all{Params{2, 4, 0, 1}, Params{2, 7, 1, 3},
                                       Params{2, 16, 2, 4},
                                       Params{2, 9, 2, 3}};
  return all;
}

Params on(Params m, int P) {
  m.P = P;
  return m;
}

/// Compiles the planner's plan for `key` both ways and compares.
void expect_same(runtime::Planner& planner, const PlanKey& key,
                 const std::string& label) {
  const runtime::PlanPtr plan = planner.plan(key);
  EXPECT_TRUE(compile_plan(*plan, label) == ref::compile_plan(*plan, label))
      << key.to_string();
}

TEST(ProgramIdentity, TreeFamiliesMatchTheReference) {
  runtime::Planner planner;
  for (const Params& m : machines()) {
    for (const int P : {2, 3, 8, 21, 64, 131, 512, 1024}) {
      for (const ProcId root : {0, P / 2, P - 1}) {
        expect_same(planner, PlanKey::broadcast(on(m, P), root), "bcast");
        expect_same(planner, PlanKey::reduce(on(m, P), root), "reduce");
      }
    }
  }
}

TEST(ProgramIdentity, AllgatherMatchesTheReference) {
  runtime::Planner planner;
  for (const Params& m : machines()) {
    for (const int P : {2, 3, 8, 50, 128}) {
      for (const int k : {1, 3}) {
        expect_same(planner, PlanKey::alltoall(on(m, P), k), "alltoall");
      }
    }
  }
}

TEST(ProgramIdentity, SegmentedBroadcastMatchesTheReferenceAtAnyRoot) {
  auto planner = std::make_shared<runtime::Planner>();
  for (const int P : {8, 23, 40, 64}) {
    for (const Time L : {4, 6, 9}) {
      const api::Communicator comm(Params::postal(P, L), planner);
      for (const int k : {2, 5, 16}) {
        const runtime::PlanPtr plan = planner->plan(
            PlanKey::segmented_broadcast(comm.params(), k));
        for (const ProcId root : {0, 1, P - 1}) {
          const Program want = relabel_swapped(
              ref::compile_plan(*plan, "bcast-seg"), 0, root);
          EXPECT_TRUE(comm.compile(Problem::kKItemBroadcast, k, root) == want)
              << plan->key.to_string() << " root " << root;
        }
      }
    }
  }
}

TEST(ProgramIdentity, RelabeledSegmentedBroadcastRunsByteExact) {
  // relabel_swapped exchanges ranks 0 and root by swapping their ranges of
  // the one instruction array; the engine must still deliver every item,
  // byte for byte, to every rank.
  auto planner = std::make_shared<runtime::Planner>();
  constexpr int kItems = 5;
  for (const int P : {8, 23, 64}) {
    const api::Communicator comm(Params::postal(P, 6), planner);
    std::vector<Bytes> items;
    for (int i = 0; i < kItems; ++i) {
      const std::string pad(static_cast<std::size_t>(i), '*');
      items.push_back(testutil::of_str(std::string("P")
                                           .append(std::to_string(P))
                                           .append(" item ")
                                           .append(std::to_string(i))
                                           .append(pad)));
    }
    for (const ProcId root : {1, P - 1}) {
      SCOPED_TRACE("P=" + std::to_string(P) + " root=" + std::to_string(root));
      const Program prog =
          comm.compile(Problem::kKItemBroadcast, kItems, root);
      EXPECT_EQ(prog.procs[static_cast<std::size_t>(root)].begin, 0u);
      for (const InitialPlacement& init : prog.initials) {
        EXPECT_EQ(init.proc, root);
      }
      Engine engine;
      const ExecReport report = engine.run(prog, Items{items});
      for (ProcId p = 0; p < P; ++p) {
        for (int i = 0; i < kItems; ++i) {
          EXPECT_EQ(report.item_at(p, i), items[static_cast<std::size_t>(i)])
              << "P" << p << " item " << i;
        }
      }
    }
  }
}

TEST(ProgramIdentity, SummationMatchesTheReferenceOnAFreshPlan) {
  auto planner = std::make_shared<runtime::Planner>();
  for (const Params& m : machines()) {
    for (const int P : {8, 30, 64}) {
      const api::Communicator comm(on(m, P), planner);
      for (const Count n : {8, 100, 4096}) {
        EXPECT_TRUE(comm.compile(Problem::kSummation,
                                 static_cast<std::int64_t>(n)) ==
                    ref::compile_summation(comm.reduce_operands(n)))
            << on(m, P) << " n " << n;
      }
    }
  }
}

TEST(ProgramIdentity, MaskedKeysMatchTheReference) {
  runtime::Planner planner;
  const Params m{16, 5, 1, 2};
  const std::uint64_t mask = 0xffffull & ~((1ull << 3) | (1ull << 9));
  for (const Problem problem : {Problem::kBroadcast, Problem::kReduce,
                                Problem::kAllToAll, Problem::kSummation}) {
    const PlanKey key = PlanKey::make(problem, m, problem == Problem::kSummation
                                                     ? 200
                                                     : 1,
                                      5, mask);
    const runtime::PlanPtr plan = planner.plan(key);
    EXPECT_EQ(compile_plan(*plan, "masked").procs.size(), 14u);
    expect_same(planner, key, "masked");
  }
}

TEST(ProgramIdentity, MaterializedReductionMatchesTheReference) {
  for (const Params& m : machines()) {
    for (const int P : {2, 9, 40}) {
      const bcast::ReductionPlan plan = bcast::optimal_reduction(on(m, P), 1);
      EXPECT_TRUE(compile_reduction(plan) == ref::compile_reduction(plan))
          << on(m, P);
    }
  }
}

/// Out of time order on purpose: P0's sends are added latest first, P3's
/// receives carry an explicit recv_start, and P2 and P3 each forward an
/// item on the cycle it lands (the receive must sort first).
Schedule hand_built() {
  const Params m{4, 2, 1, 2};  // available_at = start + 4 by default
  Schedule s(m, 2);
  s.add_initial(0, 0);
  s.add_initial(1, 1);
  s.add_send(3, 0, 1, 0);                      // lands at P1 at 7
  s.add_send(0, 0, 2, 0);                      // lands at P2 at 4
  s.add_send(4, 2, 3, 0);                      // P2 forwards at 4
  s.add_send(SendOp{1, 1, 3, 1, /*recv_start=*/9});  // lands at P3 at 10
  s.add_send(10, 3, 0, 1);                     // P3 forwards at 10
  s.add_send(6, 2, 1, 0);
  s.add_send(SendOp{2, 1, 2, 1, /*recv_start=*/12});  // lands at P2 at 13
  s.add_send(SendOp{5, 0, 2, 0, /*recv_start=*/8});
  return s;
}

TEST(ProgramIdentity, HandBuiltScheduleMatchesTheReferenceSortedOrNot) {
  const Schedule s = hand_built();
  const Program got = compile_broadcast(s);
  EXPECT_TRUE(got == ref::compile_broadcast(s));
  // The tie: P2 receives item 0 at cycle 4 and forwards it at cycle 4.
  const std::span<const Instr> p2 = got.stream(2);
  ASSERT_GE(p2.size(), 2u);
  EXPECT_EQ(p2[0].op, OpCode::kRecv);
  EXPECT_EQ(p2[0].when, 4);
  EXPECT_EQ(p2[1].op, OpCode::kSend);
  EXPECT_EQ(p2[1].when, 4);

  Schedule sorted = s;
  sorted.sort();
  EXPECT_TRUE(compile_broadcast(sorted) == ref::compile_broadcast(sorted));
}

/// A three-participant-plus-root summation plan on P = 4 (o = 0), with
/// every proc's receive and send times spaced so operand_layout is valid.
sum::SummationPlan hand_summation() {
  sum::SummationPlan plan;
  plan.params = Params{4, 2, 0, 1};
  plan.t = 20;
  plan.procs = {
      sum::ProcPlan{0, 20, kNoProc, {10, 15}, {1, 3}},
      sum::ProcPlan{1, 8, 0, {5}, {2}},
      sum::ProcPlan{2, 2, 3, {}, {}},
      sum::ProcPlan{3, 12, 0, {}, {}},
  };
  return plan;
}

TEST(ProgramLowering, RefusesAMessageWhoseEndsDisagree) {
  // P1 expects P2's partial sum, but P2 sends it to P3: message 2 (named
  // by its sender) would run P2 -> P1 by the receiver and P2 -> P3 by the
  // sender.
  try {
    (void)compile_summation(hand_summation());
    FAIL() << "a misrouted message compiled";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("message 2"), std::string::npos)
        << e.what();
  }
}

TEST(ProgramLowering, RefusesAReceiveWhoseSenderNeverSends) {
  // P2 receives from the root, which sends nothing.
  sum::SummationPlan plan = hand_summation();
  plan.procs[0].recv_from = {1, 2};
  plan.procs[1] = sum::ProcPlan{1, 8, 0, {}, {}};
  plan.procs[2] = sum::ProcPlan{2, 13, 0, {4}, {0}};
  plan.procs.pop_back();
  try {
    (void)compile_summation(plan);
    FAIL() << "an unmatched receive compiled";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("message 0"), std::string::npos)
        << e.what();
  }
}

TEST(ProgramLowering, SummationCompilesFromTheCachedPlan) {
  auto planner = std::make_shared<runtime::Planner>();
  const api::Communicator comm(Params{32, 6, 1, 2}, planner);
  const Program first = comm.compile(Problem::kSummation, 1000);
  EXPECT_EQ(planner->builds(), 1u);
  const Program second = comm.compile(Problem::kSummation, 1000);
  EXPECT_EQ(planner->builds(), 1u);  // no planning on a cached key
  EXPECT_TRUE(first == second);
  EXPECT_TRUE(first == ref::compile_summation(comm.reduce_operands(1000)));
  EXPECT_EQ(first.label, "summation");
}

}  // namespace
}  // namespace logpc::exec
