#include "runtime/implicit_plan.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "bcast/reduction.hpp"
#include "bcast/single_item.hpp"
#include "bcast/tree.hpp"
#include "exec/engine.hpp"
#include "exec/program.hpp"
#include "runtime/planner.hpp"
#include "runtime/snapshot.hpp"
#include "sim/implicit_sim.hpp"
#include "sum/summation_tree.hpp"
#include "validate/checker.hpp"

/// The implicit ≡ materialized property suite: every query an ImplicitPlan
/// answers must agree with the direct builders' tree / schedule / compiled
/// program for the same key (the planner stores broadcast and reduce
/// implicit-only, so the builders in src/bcast are the reference),
/// across the whole (P, L, o, g) space the random-machine sweeps cover, and
/// the generator form must keep working at P = 1,000,000 where nothing
/// materialized can exist.

namespace logpc::runtime {
namespace {

constexpr std::array<Problem, 2> kImplicitProblems = {Problem::kBroadcast,
                                                      Problem::kReduce};

/// The materialized tree the implicit decode must reproduce node by node.
bcast::BroadcastTree materialized_tree(const PlanKey& key) {
  return bcast::BroadcastTree::optimal(key.params, key.params.P);
}

/// What the direct builder produces for an implicit-capable key: the
/// reference the implicit plan must reproduce exactly, plus the label the
/// planner stamps on that family.
struct Direct {
  Schedule schedule;
  Time completion = 0;
  std::string method;
};

Direct direct_build(const PlanKey& key) {
  const Params& m = key.params;
  if (key.problem == Problem::kBroadcast) {
    return {bcast::optimal_single_item(m, key.root), bcast::B_of_P(m, m.P),
            "optimal tree (Thm 2.1)"};
  }
  bcast::ReductionPlan r = bcast::optimal_reduction(m, key.root);
  return {std::move(r.schedule), r.completion,
          "reversed optimal tree (Sec 4.2)"};
}

/// Validator options per family: a reduction converges on the root, so it
/// has no broadcast goal and partial values may meet a processor twice.
validate::CheckOptions check_options(Problem problem) {
  validate::CheckOptions o;
  if (problem == Problem::kReduce) {
    o.forbid_duplicate_receive = false;
    o.require_complete = false;
  }
  return o;
}

std::vector<Params> random_machines(int count, int max_p) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> pd(1, max_p);
  std::uniform_int_distribution<Time> ld(1, 8);
  std::uniform_int_distribution<Time> od(0, 3);
  std::uniform_int_distribution<Time> gd(1, 4);
  std::vector<Params> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(Params{pd(rng), ld(rng), od(rng), gd(rng)});
  }
  // Pin a few shapes the random draw may miss.
  out.push_back(Params{1, 3, 1, 2});
  out.push_back(Params{2, 1, 0, 1});
  out.push_back(Params::postal(64, 2));
  out.push_back(Params{97, 7, 3, 4});
  return out;
}

TEST(ImplicitPlan, SupportsExactlyTheRegularFullMembershipCollectives) {
  const Params m{16, 4, 1, 2};
  for (const Problem p : kImplicitProblems) {
    EXPECT_TRUE(ImplicitPlan::supports(PlanKey::make(p, m)));
  }
  EXPECT_FALSE(ImplicitPlan::supports(PlanKey::kitem(m, 4)));
  EXPECT_FALSE(ImplicitPlan::supports(PlanKey::summation(m, 100)));
  EXPECT_FALSE(ImplicitPlan::supports(PlanKey::alltoall(m)));
  // A masked key is not itself supported; implicit_only_plan compacts it
  // first.
  EXPECT_FALSE(ImplicitPlan::supports(
      PlanKey::make(Problem::kBroadcast, m, 1, 0, 0x00ffull)));
  EXPECT_THROW((void)ImplicitPlan::build(PlanKey::alltoall(m)),
               std::invalid_argument);
}

TEST(ImplicitPlan, NodeQueriesMatchTheMaterializedTrees) {
  for (const Params& m : random_machines(30, 160)) {
    for (const Problem problem : kImplicitProblems) {
      const PlanKey key = PlanKey::make(problem, m);
      const ImplicitPlan plan = ImplicitPlan::build(key);
      const bcast::BroadcastTree tree = materialized_tree(key);
      ASSERT_EQ(plan.num_nodes(), tree.size()) << key.to_string();
      ASSERT_EQ(plan.completion(), tree.makespan()) << key.to_string();
      for (int n = 0; n < tree.size(); ++n) {
        const bcast::TreeNode& node = tree.node(n);
        ASSERT_EQ(plan.label(n), node.label)
            << key.to_string() << " node " << n;
        ASSERT_EQ(plan.parent(n), node.parent)
            << key.to_string() << " node " << n;
        ASSERT_EQ(plan.child_rank(n), node.rank)
            << key.to_string() << " node " << n;
        ASSERT_EQ(plan.num_children(n),
                  static_cast<int>(node.children.size()))
            << key.to_string() << " node " << n;
        for (std::size_t i = 0; i < node.children.size(); ++i) {
          ASSERT_EQ(plan.child(n, static_cast<int>(i)), node.children[i])
              << key.to_string() << " node " << n << " child " << i;
        }
        ASSERT_EQ(plan.child(n, plan.num_children(n)), -1)
            << key.to_string() << " node " << n;
      }
    }
  }
}

TEST(ImplicitPlan, SchedulesMatchTheMaterializedBuilders) {
  std::mt19937 rng(7);
  for (const Params& m : random_machines(20, 96)) {
    std::uniform_int_distribution<int> rd(0, m.P - 1);
    const ProcId root = static_cast<ProcId>(rd(rng));
    for (const Problem problem : kImplicitProblems) {
      const PlanKey key = PlanKey::make(problem, m, 1, root);
      const Direct direct = direct_build(key);
      const ImplicitPlan implicit = ImplicitPlan::build(key);
      EXPECT_EQ(implicit.completion(), direct.completion) << key.to_string();
      EXPECT_EQ(implicit.to_schedule(), direct.schedule) << key.to_string();
      // And the planner's implicit-only build agrees on the scalars.
      const Plan lean = Planner::build_uncached(key);
      EXPECT_FALSE(lean.materialized);
      ASSERT_NE(lean.implicit, nullptr) << key.to_string();
      EXPECT_EQ(lean.completion, direct.completion);
      EXPECT_EQ(lean.method, direct.method) << key.to_string();
      EXPECT_EQ(plan_schedule(lean), direct.schedule) << key.to_string();
    }
  }
}

TEST(ImplicitPlan, PlannedSchedulesPassTheFullValidatorUpTo64KRanks) {
  // Stratified over [2, 2^16]: both ends and one P about every two
  // octaves in between (odd offsets, so non-powers of two are covered),
  // each on its own machine shape and root.
  const std::vector<Params> machines = {
      Params{2, 1, 0, 1},       Params{3, 4, 1, 2},
      Params{9, 2, 0, 3},       Params{37, 5, 2, 2},
      Params{130, 3, 1, 4},     Params{517, 6, 0, 1},
      Params{2'049, 2, 1, 2},   Params{8'195, 4, 1, 3},
      Params{32'771, 1, 0, 1},  Params{1 << 16, 4, 1, 2}};
  for (const Params& m : machines) {
    for (const Problem problem : kImplicitProblems) {
      const PlanKey key = PlanKey::make(problem, m, 1, (m.P - 1) / 3);
      const Plan plan = Planner::build_uncached(key);
      ASSERT_NE(plan.implicit, nullptr) << key.to_string();
      const Schedule s = plan_schedule(plan);
      const validate::CheckResult verdict =
          validate::check(s, check_options(problem));
      EXPECT_TRUE(verdict.ok()) << key.to_string() << "\n"
                                << verdict.summary();
      EXPECT_EQ(s.makespan(), plan.completion) << key.to_string();
    }
  }
}

TEST(ImplicitPlan, RankSchedulesTileTheSchedule) {
  for (const Params& m :
       {Params{24, 5, 1, 2}, Params{17, 2, 0, 3}, Params::postal(40, 3)}) {
    for (const Problem problem : {Problem::kBroadcast, Problem::kReduce}) {
      const PlanKey key = PlanKey::make(problem, m, 1, /*root=*/m.P / 2);
      const ImplicitPlan plan = ImplicitPlan::build(key);
      const Schedule whole = plan.to_schedule();
      std::size_t recvs = 0;
      std::size_t sends = 0;
      for (ProcId p = 0; p < m.P; ++p) {
        const RankSchedule rs = plan.rank_schedule(p);
        EXPECT_EQ(rs.proc, p);
        EXPECT_EQ(plan.proc_of_node(rs.node), p);
        EXPECT_EQ(plan.node_of_proc(p), rs.node);
        if (rs.node == 0) {
          EXPECT_EQ(rs.parent_node, -1);
          EXPECT_EQ(p, key.root);
        } else {
          EXPECT_EQ(plan.proc_of_node(rs.parent_node), rs.parent);
        }
        recvs += rs.recvs.size();
        sends += rs.sends.size();
        // Every generated op appears verbatim in the materialized schedule.
        for (const SendOp& op : rs.recvs) {
          EXPECT_EQ(op.to, p);
          EXPECT_NE(std::find(whole.sends().begin(), whole.sends().end(), op),
                    whole.sends().end());
        }
        for (const SendOp& op : rs.sends) {
          EXPECT_EQ(op.from, p);
          EXPECT_NE(std::find(whole.sends().begin(), whole.sends().end(), op),
                    whole.sends().end());
        }
        if (problem == Problem::kBroadcast) {
          EXPECT_EQ(rs.informed_at, plan.label(rs.node));
        } else {
          EXPECT_EQ(rs.informed_at, plan.completion() - plan.label(rs.node));
        }
      }
      // Each tree edge is one rank's recv and another's send.
      EXPECT_EQ(recvs, whole.sends().size());
      EXPECT_EQ(sends, whole.sends().size());
    }
  }
}

TEST(ImplicitPlan, CompiledStreamsMatchTheMaterializedCompilers) {
  for (const Params& m :
       {Params{12, 4, 1, 2}, Params{31, 2, 0, 3}, Params::postal(48, 4)}) {
    for (ProcId root : {ProcId{0}, static_cast<ProcId>(m.P - 1)}) {
      {
        const PlanKey key = PlanKey::broadcast(m, root);
        const ImplicitPlan plan = ImplicitPlan::build(key);
        EXPECT_EQ(exec::compile_implicit(plan),
                  exec::compile_broadcast(bcast::optimal_single_item(m, root)))
            << key.to_string();
      }
      {
        const PlanKey key = PlanKey::reduce(m, root);
        const ImplicitPlan plan = ImplicitPlan::build(key);
        EXPECT_EQ(exec::compile_implicit(plan),
                  exec::compile_reduction(bcast::optimal_reduction(m, root)))
            << key.to_string();
      }
    }
  }
}

TEST(ImplicitPlan, EngineRunsAreByteExactAgainstTheMaterializedPath) {
  exec::Engine engine;
  const Params m{14, 3, 1, 2};
  const std::string text = "implicit-vs-materialized";
  exec::Bytes payload(text.size());
  std::memcpy(payload.data(), text.data(), text.size());

  // Broadcast: every rank must hold the payload, identically on both paths.
  const PlanKey bkey = PlanKey::broadcast(m, /*root=*/3);
  const exec::Program via_implicit =
      exec::compile_implicit(ImplicitPlan::build(bkey));
  const exec::Program via_ir =
      exec::compile_broadcast(bcast::optimal_single_item(m, /*root=*/3));
  const std::vector<exec::Bytes> items{payload};
  const exec::ExecReport ri = engine.run(via_implicit, exec::Items{items});
  const exec::ExecReport rm = engine.run(via_ir, exec::Items{items});
  ASSERT_EQ(ri.items.size(), rm.items.size());
  for (ProcId p = 0; p < m.P; ++p) {
    EXPECT_EQ(ri.item_at(p, 0), rm.item_at(p, 0));
    EXPECT_EQ(ri.item_at(p, 0), payload);
  }

  // Reduce with a *non-commutative* fold: identical accumulators requires
  // identical fold order, not just the same multiset of messages.
  const exec::CombineFn concat = [](exec::Bytes& acc,
                                    std::span<const std::byte> rhs) {
    acc.insert(acc.end(), rhs.begin(), rhs.end());
  };
  std::vector<exec::Bytes> values;
  for (int p = 0; p < m.P; ++p) {
    values.push_back(exec::Bytes{static_cast<std::byte>('a' + p)});
  }
  const PlanKey rkey = PlanKey::reduce(m, /*root=*/5);
  const bcast::ReductionPlan rp = bcast::optimal_reduction(m, /*root=*/5);
  const exec::ExecReport fi =
      engine.run(exec::compile_implicit(ImplicitPlan::build(rkey)),
                 exec::FoldValues{values, concat});
  const exec::ExecReport fm =
      engine.run(exec::compile_reduction(rp), exec::FoldValues{values, concat});
  EXPECT_EQ(fi.folded_at(5), fm.folded_at(5));
  EXPECT_EQ(fi.folded_at(5).size(), static_cast<std::size_t>(m.P));
}

TEST(ImplicitPlan, MillionRankPlansStayImplicitAndTiny) {
  const Params m{1'000'000, 4, 1, 2};
  Planner planner;
  const PlanPtr plan = planner.plan(PlanKey::broadcast(m));
  ASSERT_NE(plan->implicit, nullptr);
  EXPECT_FALSE(plan->materialized);
  EXPECT_TRUE(plan->schedule.sends().empty());
  const ImplicitPlan& ip = *plan->implicit;
  EXPECT_EQ(ip.num_nodes(), 1'000'000);
  EXPECT_EQ(ip.completion(), bcast::B_of_P(m, m.P));
  // The whole representation is a couple of O(B) tables.
  EXPECT_LT(ip.memory_bytes(), std::size_t{64} * 1024);

  // Full structural simulation of all 1M ranks.
  const sim::ImplicitRunResult run = sim::run_implicit(ip);
  EXPECT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.ranks, 1'000'000u);
  EXPECT_EQ(run.messages, 999'999u);
  EXPECT_EQ(run.makespan, ip.completion());

  // Spot-checked rank queries, including the very last rank.
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> rd(0, m.P - 1);
  for (int i = 0; i < 5000; ++i) {
    const auto p = static_cast<ProcId>(rd(rng));
    const RankSchedule rs = ip.rank_schedule(p);
    EXPECT_EQ(rs.proc, p);
    if (rs.node != 0) {
      EXPECT_EQ(ip.child(rs.parent_node, rs.child_rank), rs.node);
      EXPECT_EQ(rs.recvs.size(), 1u);
    }
  }
  const RankSchedule last = ip.rank_schedule(m.P - 1);
  EXPECT_LE(ip.label(last.node), ip.completion());
}

TEST(ImplicitPlan, ImplicitCapableKeysAreImplicitOnlyAtEveryP) {
  Planner planner;
  // Both sides of the old 2^16 materialization threshold, and tiny P.
  for (const int P : {2, 64, 65, 1 << 16, (1 << 16) + 1}) {
    const Params m{P, 4, 1, 2};
    for (const Problem problem : kImplicitProblems) {
      const PlanPtr plan = planner.plan(PlanKey::make(problem, m));
      EXPECT_FALSE(plan->materialized) << plan->key.to_string();
      ASSERT_NE(plan->implicit, nullptr) << plan->key.to_string();
      EXPECT_TRUE(plan->schedule.sends().empty());
      EXPECT_EQ(plan->completion, plan->implicit->completion());
    }
  }
  // plan_schedule materializes on demand and matches the direct builder.
  const PlanPtr small = planner.plan(PlanKey::broadcast(Params{64, 4, 1, 2}));
  EXPECT_EQ(plan_schedule(*small),
            bcast::optimal_single_item(Params{64, 4, 1, 2}, 0));
  // Problems without an implicit form materialize whatever P is (here a
  // summation of one operand per rank).
  for (const int P : {2, 200, (1 << 16) + 1}) {
    const Params m{P, 4, 1, 2};
    const PlanPtr sum = planner.plan(PlanKey::summation(m, P));
    EXPECT_TRUE(sum->materialized);
    EXPECT_EQ(sum->implicit, nullptr);
    EXPECT_EQ(sum->schedule,
              sum::optimal_summation(m, sum::min_time_for_operands(m, P))
                  .timing_view());
  }
}

/// Every buildable key shape on one small machine (k-item keys at k = 2,
/// summation at 40 operands), plus a masked broadcast and a masked
/// all-to-all.
std::vector<PlanKey> one_key_per_problem() {
  const Params m{8, 2, 0, 1};
  std::vector<PlanKey> keys;
  for (int p = 0; p < kNumProblems; ++p) {
    const auto problem = static_cast<Problem>(p);
    const std::int64_t k = problem == Problem::kSummation ? 40 : 2;
    keys.push_back(PlanKey::make(problem, m, k));
  }
  keys.push_back(PlanKey::make(Problem::kBroadcast, m, 1, 0, 0xf7u));
  keys.push_back(PlanKey::make(Problem::kAllToAll, m, 1, 0, 0x7fu));
  return keys;
}

TEST(ImplicitPlan, MaterializedExactlyWhenThereIsNoImplicitForm) {
  Planner planner;
  for (const PlanKey& key : one_key_per_problem()) {
    const PlanPtr plan = planner.plan(key);
    EXPECT_EQ(plan->materialized, plan->implicit == nullptr)
        << key.to_string();
    EXPECT_EQ(plan->implicit != nullptr,
              ImplicitPlan::supports(key.compacted()))
        << key.to_string();
  }
  std::stringstream buf;
  EXPECT_EQ(save_snapshot(planner.cache(), buf), planner.cache().size());
  PlanCache loaded(64, 1);
  (void)load_snapshot(loaded, buf);
  for (const PlanKey& key : one_key_per_problem()) {
    const PlanPtr plan = loaded.get(key);
    ASSERT_NE(plan, nullptr) << key.to_string();
    EXPECT_EQ(plan->materialized, plan->implicit == nullptr)
        << key.to_string();
    EXPECT_EQ(plan_schedule(*plan), plan_schedule(*planner.plan(key)))
        << key.to_string();
  }
}

TEST(ImplicitPlan, SnapshotsRoundTripBothRepresentations) {
  Planner planner;
  // Three implicit-only plans (small P included) and one materialized.
  (void)planner.plan(PlanKey::broadcast(Params{16, 3, 1, 2}));
  (void)planner.plan(PlanKey::broadcast(Params{4096, 3, 1, 2}));
  (void)planner.plan(PlanKey::reduce(Params{100, 2, 0, 1}));
  (void)planner.plan(PlanKey::alltoall(Params{16, 3, 1, 2}));
  std::stringstream buf;
  EXPECT_EQ(save_snapshot(planner.cache(), buf), 4u);

  PlanCache restored(16, 1);
  EXPECT_EQ(load_snapshot(restored, buf), 4u);
  const PlanPtr big = restored.get(PlanKey::broadcast(Params{4096, 3, 1, 2}));
  ASSERT_NE(big, nullptr);
  EXPECT_FALSE(big->materialized);
  ASSERT_NE(big->implicit, nullptr);
  EXPECT_EQ(big->implicit->num_nodes(), 4096);
  EXPECT_EQ(big->completion, big->implicit->completion());
  const PlanPtr small =
      restored.get(PlanKey::broadcast(Params{16, 3, 1, 2}));
  ASSERT_NE(small, nullptr);
  EXPECT_FALSE(small->materialized);
  ASSERT_NE(small->implicit, nullptr);
  EXPECT_EQ(small->implicit->to_schedule(),
            bcast::optimal_single_item(Params{16, 3, 1, 2}, 0));
  const PlanPtr alltoall =
      restored.get(PlanKey::alltoall(Params{16, 3, 1, 2}));
  ASSERT_NE(alltoall, nullptr);
  EXPECT_TRUE(alltoall->materialized);
  EXPECT_EQ(alltoall->implicit, nullptr);
  EXPECT_EQ(alltoall->schedule,
            planner.plan(PlanKey::alltoall(Params{16, 3, 1, 2}))->schedule);
}

TEST(ImplicitPlan, ConcurrentQueriesAreRaceFree) {
  // All queries are const over immutable tables; TSan verifies.
  const ImplicitPlan plan =
      ImplicitPlan::build(PlanKey::broadcast(Params{100'000, 4, 1, 2}));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&plan, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      std::uniform_int_distribution<int> rd(0, 99'999);
      for (int i = 0; i < 2000; ++i) {
        const auto p = static_cast<ProcId>(rd(rng));
        const RankSchedule rs = plan.rank_schedule(p);
        ASSERT_EQ(rs.proc, p);
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

}  // namespace
}  // namespace logpc::runtime
