#include "runtime/implicit_plan.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "baselines/bcast_baselines.hpp"
#include "bcast/reduction.hpp"
#include "bcast/tree.hpp"
#include "exec/engine.hpp"
#include "exec/program.hpp"
#include "runtime/planner.hpp"
#include "runtime/snapshot.hpp"
#include "sim/implicit_sim.hpp"

/// The implicit ≡ materialized property suite: every query an ImplicitPlan
/// answers must agree with the materialized tree / schedule / compiled
/// program for the same key, across the whole (P, L, o, g) space the
/// random-machine sweeps cover, and the generator form must keep working at
/// P = 1,000,000 where nothing materialized can exist.

namespace logpc::runtime {
namespace {

constexpr std::array<Problem, 5> kImplicitProblems = {
    Problem::kBroadcast, Problem::kReduce, Problem::kBinomialBroadcast,
    Problem::kBinaryBroadcast, Problem::kChainBroadcast};

/// The materialized tree the implicit decode must reproduce node by node.
bcast::BroadcastTree materialized_tree(const PlanKey& key) {
  const Params& m = key.params;
  switch (key.problem) {
    case Problem::kBroadcast:
    case Problem::kReduce:
      return bcast::BroadcastTree::optimal(m, m.P);
    case Problem::kBinomialBroadcast:
      return baselines::binomial_tree(m, m.P);
    case Problem::kBinaryBroadcast:
      return baselines::binary_tree(m, m.P);
    case Problem::kChainBroadcast:
      return baselines::linear_chain(m, m.P);
    default:
      throw std::logic_error("not an implicit problem");
  }
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
  EXPECT_FALSE(ImplicitPlan::supports(PlanKey::scatter(m)));
  EXPECT_FALSE(ImplicitPlan::supports(PlanKey::gather(m)));
  EXPECT_FALSE(ImplicitPlan::supports(PlanKey::summation(m, 100)));
  EXPECT_FALSE(ImplicitPlan::supports(PlanKey::alltoall(m)));
  EXPECT_FALSE(ImplicitPlan::supports(PlanKey::allreduce(m)));
  EXPECT_FALSE(
      ImplicitPlan::supports(PlanKey::make(Problem::kFlatBroadcast, m)));
  // Degraded membership stays materialized.
  EXPECT_FALSE(ImplicitPlan::supports(
      PlanKey::make(Problem::kBroadcast, m, 1, 0, 0x00ffull)));
  EXPECT_THROW((void)ImplicitPlan::build(PlanKey::scatter(m)),
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
      const Plan materialized = Planner::build_uncached(key);
      ASSERT_TRUE(materialized.materialized);
      ASSERT_NE(materialized.implicit, nullptr) << key.to_string();
      const ImplicitPlan& implicit = *materialized.implicit;
      EXPECT_EQ(implicit.completion(), materialized.completion)
          << key.to_string();
      EXPECT_EQ(implicit.to_schedule(), materialized.schedule)
          << key.to_string();
      // And the implicit-only build agrees on the scalars.
      const Plan lean = Planner::build_uncached(key, /*materialize=*/false);
      EXPECT_FALSE(lean.materialized);
      EXPECT_EQ(lean.completion, materialized.completion);
      EXPECT_EQ(lean.method, materialized.method) << key.to_string();
      EXPECT_EQ(plan_schedule(lean), materialized.schedule)
          << key.to_string();
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
        const Plan full = Planner::build_uncached(key);
        EXPECT_EQ(exec::compile_implicit(plan),
                  exec::compile_broadcast(full.schedule))
            << key.to_string();
      }
      {
        const PlanKey key = PlanKey::reduce(m, root);
        const ImplicitPlan plan = ImplicitPlan::build(key);
        bcast::ReductionPlan rp;
        rp.params = m;
        rp.root = root;
        const Plan full = Planner::build_uncached(key);
        rp.schedule = full.schedule;
        rp.completion = full.completion;
        EXPECT_EQ(exec::compile_implicit(plan), exec::compile_reduction(rp))
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
      exec::compile_broadcast(Planner::build_uncached(bkey).schedule);
  const exec::ExecReport ri = engine.run(via_implicit, {payload});
  const exec::ExecReport rm = engine.run(via_ir, {payload});
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
  const Plan rfull = Planner::build_uncached(rkey);
  bcast::ReductionPlan rp;
  rp.params = m;
  rp.root = 5;
  rp.schedule = rfull.schedule;
  rp.completion = rfull.completion;
  const exec::ExecReport fi =
      engine.run(exec::compile_implicit(ImplicitPlan::build(rkey)), values,
                 concat);
  const exec::ExecReport fm =
      engine.run(exec::compile_reduction(rp), values, concat);
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

  // The baseline families also hold up at 1M (spot checks; the optimal
  // family above gets the full sweep).
  for (const Problem problem :
       {Problem::kBinomialBroadcast, Problem::kBinaryBroadcast}) {
    const ImplicitPlan bp =
        ImplicitPlan::build(PlanKey::make(problem, m));
    EXPECT_EQ(bp.num_nodes(), 1'000'000);
    std::int64_t walked = 0;
    for (std::int64_t n = 999'999; n != 0; n = bp.parent(n)) {
      const std::int64_t parent = bp.parent(n);
      ASSERT_GE(parent, 0);
      ASSERT_LT(parent, n);
      ASSERT_EQ(bp.child(parent, bp.child_rank(n)), n);
      ++walked;
    }
    EXPECT_LE(walked, 64);  // depth is logarithmic
  }
}

TEST(ImplicitPlan, PlannerThresholdControlsMaterialization) {
  Planner::Options opts;
  opts.materialize_threshold = 64;
  Planner planner(opts);
  const PlanPtr small = planner.plan(PlanKey::broadcast(Params{64, 4, 1, 2}));
  EXPECT_TRUE(small->materialized);
  EXPECT_NE(small->implicit, nullptr);
  const PlanPtr big = planner.plan(PlanKey::broadcast(Params{65, 4, 1, 2}));
  EXPECT_FALSE(big->materialized);
  ASSERT_NE(big->implicit, nullptr);
  // plan_schedule materializes on demand and matches the direct builder.
  EXPECT_EQ(plan_schedule(*big),
            Planner::build_uncached(big->key).schedule);
  // Problems without an implicit form materialize whatever P is.
  const PlanPtr scatter =
      planner.plan(PlanKey::scatter(Params{200, 4, 1, 2}));
  EXPECT_TRUE(scatter->materialized);
  EXPECT_EQ(scatter->implicit, nullptr);
}

TEST(ImplicitPlan, SnapshotsRoundTripBothRepresentations) {
  Planner::Options opts;
  opts.materialize_threshold = 32;
  Planner planner(opts);
  (void)planner.plan(PlanKey::broadcast(Params{16, 3, 1, 2}));   // materialized
  (void)planner.plan(PlanKey::broadcast(Params{4096, 3, 1, 2})); // implicit-only
  (void)planner.plan(PlanKey::reduce(Params{100, 2, 0, 1}));     // implicit-only
  std::stringstream buf;
  EXPECT_EQ(save_snapshot(planner.cache(), buf), 3u);

  PlanCache restored(16, 1);
  EXPECT_EQ(load_snapshot(restored, buf), 3u);
  const PlanPtr big = restored.get(PlanKey::broadcast(Params{4096, 3, 1, 2}));
  ASSERT_NE(big, nullptr);
  EXPECT_FALSE(big->materialized);
  ASSERT_NE(big->implicit, nullptr);
  EXPECT_EQ(big->implicit->num_nodes(), 4096);
  EXPECT_EQ(big->completion, big->implicit->completion());
  const PlanPtr small =
      restored.get(PlanKey::broadcast(Params{16, 3, 1, 2}));
  ASSERT_NE(small, nullptr);
  EXPECT_TRUE(small->materialized);
  ASSERT_NE(small->implicit, nullptr);
  EXPECT_EQ(small->implicit->to_schedule(), small->schedule);
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
