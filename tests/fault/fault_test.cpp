#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "api/communicator.hpp"
#include "bcast/single_item.hpp"
#include "exec/engine.hpp"
#include "exec/program.hpp"
#include "runtime/implicit_plan.hpp"
#include "runtime/plan_key.hpp"
#include "runtime/planner.hpp"
#include "runtime/snapshot.hpp"
#include "sum/executor.hpp"
#include "sum/summation_tree.hpp"
#include "validate/checker.hpp"
#include "../exec/exec_test_util.hpp"

/// The fault suite runs its injection scenarios at the seed given by
/// LOGPC_FAULT_SEED (default 1); CI sweeps a small fixed seed matrix under
/// ASan and TSan.  Every assertion here must hold at *any* seed.

namespace logpc {
namespace {

namespace tu = exec::testutil;
using exec::Bytes;
using exec::Engine;
using exec::ExecReport;
using runtime::PlanKey;
using runtime::Planner;
using runtime::Problem;

std::uint64_t env_seed() {
  const char* s = std::getenv("LOGPC_FAULT_SEED");
  return (s != nullptr && *s != '\0') ? std::strtoull(s, nullptr, 10) : 1;
}

// --- injector: pure, deterministic decisions ----------------------------

TEST(Injector, DecisionsAreDeterministicInTheSeed) {
  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.delay_prob = 0.5;
  spec.delay_ns = 1000;
  spec.drop_prob = 0.5;
  const fault::Injector a(spec);
  const fault::Injector b(spec);
  for (ProcId from = 0; from < 8; ++from) {
    for (std::int32_t link = 0; link < 8; ++link) {
      for (std::uint64_t seq = 1; seq <= 4; ++seq) {
        EXPECT_EQ(a.send_delay_ns(from, link, seq),
                  b.send_delay_ns(from, link, seq));
        for (std::uint64_t attempt = 1; attempt <= 4; ++attempt) {
          EXPECT_EQ(a.drop_delivery(from, link, seq, attempt),
                    b.drop_delivery(from, link, seq, attempt));
        }
      }
    }
  }
}

TEST(Injector, DifferentSeedsDisagreeSomewhere) {
  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.drop_prob = 0.5;
  fault::FaultSpec other = spec;
  other.seed = spec.seed + 1;
  const fault::Injector a(spec);
  const fault::Injector b(other);
  bool differ = false;
  for (std::int32_t link = 0; link < 16 && !differ; ++link) {
    for (std::uint64_t seq = 1; seq <= 16 && !differ; ++seq) {
      differ = a.drop_delivery(0, link, seq, 1) != b.drop_delivery(0, link, seq, 1);
    }
  }
  EXPECT_TRUE(differ);
}

TEST(Injector, DropCapGuaranteesEventualDelivery) {
  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.drop_prob = 1.0;  // drop everything...
  spec.max_drops_per_message = 3;
  const fault::Injector inj(spec);
  EXPECT_TRUE(inj.drop_delivery(1, 0, 1, 1));
  EXPECT_TRUE(inj.drop_delivery(1, 0, 1, 2));
  EXPECT_TRUE(inj.drop_delivery(1, 0, 1, 3));
  // ...except the attempt past the cap, so a retrying sender gets through.
  EXPECT_FALSE(inj.drop_delivery(1, 0, 1, 4));
}

TEST(Injector, SlowAndDeadKnobs) {
  fault::FaultSpec spec;
  spec.slow_ranks = {2, 5};
  spec.slow_stall_ns = 100;
  spec.dead_rank = 3;
  spec.dead_after_instrs = 2;
  const fault::Injector inj(spec);
  EXPECT_TRUE(inj.is_slow(2));
  EXPECT_TRUE(inj.is_slow(5));
  EXPECT_FALSE(inj.is_slow(3));
  EXPECT_FALSE(inj.dies_at(3, 1));
  EXPECT_TRUE(inj.dies_at(3, 2));
  EXPECT_TRUE(inj.dies_at(3, 7));
  EXPECT_FALSE(inj.dies_at(2, 7));
  EXPECT_TRUE(spec.any());
  EXPECT_FALSE(fault::FaultSpec{}.any());
}

TEST(RemapWithout, ShiftsRanksAboveTheRemovedOne) {
  fault::FaultSpec spec;
  spec.slow_ranks = {1, 3, 6};
  spec.slow_stall_ns = 100;
  spec.dead_rank = 5;
  const fault::FaultSpec out = fault::remap_without(spec, 3);
  EXPECT_EQ(out.slow_ranks, (std::vector<ProcId>{1, 5}));
  EXPECT_EQ(out.dead_rank, 4);
  // Removing the dead rank itself clears the fault: it already fired.
  EXPECT_EQ(fault::remap_without(spec, 5).dead_rank, kNoProc);
}

// --- engine under injected faults ---------------------------------------

TEST(EngineFault, BroadcastSurvivesDropsWithExactlyOnceDelivery) {
  const Params params{8, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const exec::Program prog = exec::compile_broadcast(s, "bcast-drop");
  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.drop_prob = 0.7;
  const fault::Injector inj(spec);
  Engine engine;
  const Bytes payload = tu::of_str("survives a lossy network");
  const ExecReport report = engine.run(prog, {payload}, &inj);

  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(report.item_at(p, 0), payload) << "P" << p;
  }
  EXPECT_TRUE(validate::check_delivery_order(s, report.deliveries).ok());
  EXPECT_TRUE(validate::check_exactly_once(report.deliveries).ok());
  // drop_prob 0.7 over 7 messages: some delivery was dropped and retried
  // at any seed with overwhelming probability -- but only assert the
  // accounting is consistent, not that faults fired.
  std::size_t drops = 0;
  for (const auto& evs : report.fault_events) {
    for (const auto& fe : evs) {
      if (fe.kind == fault::FaultKind::kDrop) ++drops;
    }
  }
  if (drops > 0) {
    EXPECT_GT(report.retries, 0u);
  }
}

TEST(EngineFault, SameSeedSameFaultEventLog) {
  const Params params{8, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const exec::Program prog = exec::compile_broadcast(s, "bcast-det");
  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.drop_prob = 0.6;
  spec.delay_prob = 0.4;
  spec.delay_ns = 50'000;
  const fault::Injector inj(spec);
  Engine engine;
  const Bytes payload = tu::of_str("deterministic");
  const ExecReport first = engine.run(prog, {payload}, &inj);
  const ExecReport second = engine.run(prog, {payload}, &inj);
  ASSERT_EQ(first.fault_events.size(), second.fault_events.size());
  for (std::size_t p = 0; p < first.fault_events.size(); ++p) {
    EXPECT_EQ(first.fault_events[p], second.fault_events[p]) << "P" << p;
  }
}

TEST(EngineFault, SlowRankDegradesLatencyNotMembership) {
  const Params params{6, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const exec::Program prog = exec::compile_broadcast(s, "bcast-slow");
  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.slow_ranks = {1};
  spec.slow_stall_ns = 200'000;  // well past the ack timeout
  const fault::Injector inj(spec);
  Engine engine;
  const Bytes payload = tu::of_str("slow but alive");
  const ExecReport report = engine.run(prog, {payload}, &inj);  // no throw
  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(report.item_at(p, 0), payload);
  }
  ASSERT_FALSE(report.fault_events[1].empty());
  EXPECT_EQ(report.fault_events[1][0].kind, fault::FaultKind::kSlow);
}

TEST(EngineFault, DeadRankRaisesRankFailureNamingTheRank) {
  const Params params{8, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const exec::Program prog = exec::compile_broadcast(s, "bcast-dead");
  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.dead_rank = 4;
  spec.dead_after_instrs = 0;
  const fault::Injector inj(spec);
  Engine engine;
  try {
    (void)engine.run(prog, {tu::of_str("x")}, &inj);
    FAIL() << "expected exec::RankFailure";
  } catch (const exec::RankFailure& failure) {
    EXPECT_EQ(failure.rank(), 4);
  }
}

TEST(EngineFault, SummationUnderDropsKeepsNonCommutativeOrder) {
  const Params params{8, 4, 1, 2};  // g >= o + 1
  const sum::SummationPlan plan = sum::optimal_summation(params, 30);
  ASSERT_GT(plan.total_operands, 0u);
  const exec::Program prog = exec::compile_summation(plan);

  const auto layout = sum::operand_layout(plan);
  std::vector<std::vector<Bytes>> operands(plan.procs.size());
  int next = 0;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    for (std::size_t j = 0; j < layout[i].total(); ++j) {
      operands[i].push_back(tu::of_str("[" + std::to_string(next++) + "]"));
    }
  }

  Engine engine;
  const ExecReport clean = engine.run(prog, operands, tu::concat());

  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.drop_prob = 0.6;
  const fault::Injector inj(spec);
  const ExecReport faulty = engine.run(prog, operands, tu::concat(), &inj);

  // Retried deliveries must not perturb the plan's combination order: the
  // concatenation (associative, NOT commutative) must match the fault-free
  // fold byte for byte.
  EXPECT_EQ(tu::to_str(faulty.folded_at(plan.root)),
            tu::to_str(clean.folded_at(plan.root)));
  EXPECT_TRUE(validate::check_exactly_once(faulty.deliveries).ok());
}

TEST(CheckExactlyOnce, FlagsALeakedDuplicate) {
  std::vector<std::vector<validate::DeliveryRecord>> observed(2);
  observed[1] = {{0, 0}, {0, 1}, {0, 0}};  // (from 0, item 0) accepted twice
  const auto result = validate::check_exactly_once(observed);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].rule, validate::Rule::kDuplicateReceive);
  EXPECT_TRUE(validate::check_exactly_once({}).ok());
}

// --- degraded re-planning: PlanKey masks --------------------------------

TEST(PlanKeyMask, NormalizesAndValidates) {
  const Params params{8, 4, 1, 2};
  // Full membership collapses to the mask-free fast path.
  EXPECT_EQ(PlanKey::make(Problem::kBroadcast, params, 1, 0, 0xffu).mask, 0u);
  const PlanKey degraded =
      PlanKey::make(Problem::kBroadcast, params, 1, 0, 0xffu & ~(1u << 3));
  EXPECT_EQ(degraded.mask, 0xf7u);
  EXPECT_EQ(degraded.live_count(), 7);
  const std::vector<ProcId> live = degraded.live_ranks();
  ASSERT_EQ(live.size(), 7u);
  EXPECT_EQ(live[2], 2);
  EXPECT_EQ(live[3], 4);  // rank 3 gone, physical 4 is plan proc 3
  // Masked and unmasked keys must not collide in the cache.
  EXPECT_FALSE(degraded == PlanKey::make(Problem::kBroadcast, params));
  EXPECT_NE(degraded.hash(), PlanKey::make(Problem::kBroadcast, params).hash());
  // Bits past P, and masks excluding the root of a rooted problem, are bugs.
  EXPECT_THROW((void)PlanKey::make(Problem::kBroadcast, params, 1, 0, 1u << 8),
               std::invalid_argument);
  EXPECT_THROW(
      (void)PlanKey::make(Problem::kBroadcast, params, 1, 3, 0xffu & ~(1u << 3)),
      std::invalid_argument);
  std::ostringstream os;
  os << degraded;
  EXPECT_NE(os.str().find("mask=0xf7"), std::string::npos);
}

TEST(PlanKeyMask, MaskedBuildIsTheCompactedOptimalPlan) {
  const Params params{8, 4, 1, 2};
  const std::uint64_t mask = 0xffu & ~(1u << 5);
  const runtime::Plan degraded =
      Planner::build_uncached(PlanKey::make(Problem::kBroadcast, params, 1, 0, mask));
  EXPECT_EQ(degraded.key.mask, mask);
  EXPECT_EQ(degraded.schedule.params().P, 7);
  // Same construction as asking for the 7-processor machine directly: the
  // broadcast tree is universal, so the degraded plan is itself optimal.
  Params compact = params;
  compact.P = 7;
  const runtime::Plan direct =
      Planner::build_uncached(PlanKey::make(Problem::kBroadcast, compact));
  EXPECT_EQ(degraded.completion, direct.completion);
  EXPECT_EQ(degraded.schedule.sends().size(), direct.schedule.sends().size());
}

TEST(PlanKeyMask, PlannerCachesMaskedAndUnmaskedSeparately) {
  Planner planner;
  const Params params{8, 4, 1, 2};
  const auto full = planner.plan(PlanKey::make(Problem::kBroadcast, params));
  const auto masked = planner.plan(
      PlanKey::make(Problem::kBroadcast, params, 1, 0, 0xffu & ~(1u << 2)));
  EXPECT_NE(full.get(), masked.get());
  EXPECT_EQ(planner.builds(), 2u);
  // Re-requesting the masked key is a cache hit, not a rebuild.
  (void)planner.plan(
      PlanKey::make(Problem::kBroadcast, params, 1, 0, 0xffu & ~(1u << 2)));
  EXPECT_EQ(planner.builds(), 2u);
}

TEST(PlanKeyMask, SnapshotRoundTripsMaskedKeys) {
  runtime::PlanCache cache(16, 1);
  const Params params{8, 4, 1, 2};
  const PlanKey key =
      PlanKey::make(Problem::kBroadcast, params, 1, 0, 0xffu & ~(1u << 6));
  cache.put(key, std::make_shared<const runtime::Plan>(
                     Planner::build_uncached(key)));
  std::stringstream buf;
  EXPECT_EQ(runtime::save_snapshot(cache, buf), 1u);
  runtime::PlanCache loaded(16, 1);
  EXPECT_EQ(runtime::load_snapshot(loaded, buf), 1u);
  const auto hit = loaded.get(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->key.mask, key.mask);
  EXPECT_EQ(hit->schedule.params().P, 7);
  // The generator form is re-derived on load exactly as the planner
  // derived it: the compact survivor machine's, lowering to the same
  // program as the built plan's.
  const runtime::Plan built = Planner::build_uncached(key);
  ASSERT_NE(built.implicit, nullptr);
  ASSERT_NE(hit->implicit, nullptr);
  EXPECT_EQ(hit->implicit->params().P, 7);
  EXPECT_EQ(exec::compile_implicit(*hit->implicit),
            exec::compile_implicit(*built.implicit));
  EXPECT_EQ(exec::compile_implicit(*hit->implicit),
            exec::compile_broadcast(hit->schedule));
}

// --- the recovery layer (api::Communicator::run_broadcast_ft) -----------

/// A rank (never the root) with at least two instructions, so killing it
/// after its first instruction is a genuine mid-collective crash whatever
/// shape the optimal tree takes.
ProcId pick_relay_rank(const exec::Program& prog) {
  for (std::size_t p = 1; p < prog.procs.size(); ++p) {
    if (prog.procs[p].instrs.size() >= 2) return static_cast<ProcId>(p);
  }
  return 1;  // fall back: leaf death is still a valid crash
}

api::FtRunOptions ft_options(const fault::FaultSpec& spec) {
  api::FtRunOptions opt;
  opt.faults = spec;
  return opt;
}

TEST(Recovery, BroadcastCompletesOnSurvivorsAfterMidRunDeath) {
  const Params params{8, 4, 1, 2};
  const api::Communicator comm(params);
  const exec::Program probe =
      exec::compile_broadcast(bcast::optimal_single_item(params), "probe");
  const ProcId victim = pick_relay_rank(probe);

  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.dead_rank = victim;
  spec.dead_after_instrs = 1;
  const Bytes payload = tu::of_str("the collective outlives rank " +
                                   std::to_string(victim));

  const api::FtRunResult res =
      comm.run_broadcast_ft(payload, 0, ft_options(spec));

  ASSERT_EQ(res.status, api::RunStatus::kRecovered);
  EXPECT_EQ(res.attempts, 2);
  ASSERT_EQ(res.failed_ranks, std::vector<ProcId>{victim});
  ASSERT_EQ(res.survivors.size(), 7u);
  for (const ProcId r : res.survivors) EXPECT_NE(r, victim);
  EXPECT_GT(res.recovery_ns, 0u);

  // Byte-exact payloads on every survivor, exactly-once, in plan order.
  for (std::size_t p = 0; p < res.survivors.size(); ++p) {
    EXPECT_EQ(res.report.item_at(static_cast<ProcId>(p), 0), payload)
        << "survivor " << res.survivors[p];
  }
  ASSERT_NE(res.plan, nullptr);
  EXPECT_TRUE(
      validate::check_delivery_order(res.plan->schedule, res.report.deliveries)
          .ok());
  EXPECT_TRUE(validate::check_exactly_once(res.report.deliveries).ok());
}

TEST(Recovery, SameSeedSameRecoveryAndSameEventLog) {
  const Params params{8, 4, 1, 2};
  const api::Communicator comm(params);
  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.dead_rank = 3;
  spec.dead_after_instrs = 0;
  spec.drop_prob = 0.4;
  const Bytes payload = tu::of_str("replayable");

  const api::FtRunResult a = comm.run_broadcast_ft(payload, 0, ft_options(spec));
  const api::FtRunResult b = comm.run_broadcast_ft(payload, 0, ft_options(spec));
  ASSERT_EQ(a.status, api::RunStatus::kRecovered);
  ASSERT_EQ(b.status, api::RunStatus::kRecovered);
  EXPECT_EQ(a.failed_ranks, b.failed_ranks);
  EXPECT_EQ(a.survivors, b.survivors);
  ASSERT_EQ(a.report.fault_events.size(), b.report.fault_events.size());
  for (std::size_t p = 0; p < a.report.fault_events.size(); ++p) {
    EXPECT_EQ(a.report.fault_events[p], b.report.fault_events[p]) << "P" << p;
  }
}

TEST(Recovery, RootDeathIsUnrecoverable) {
  const Params params{4, 4, 1, 2};
  const api::Communicator comm(params);
  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.dead_rank = 0;  // the root
  spec.dead_after_instrs = 0;
  const api::FtRunResult res =
      comm.run_broadcast_ft(tu::of_str("x"), 0, ft_options(spec));
  EXPECT_EQ(res.status, api::RunStatus::kFailed);
  EXPECT_FALSE(res.error.empty());
}

TEST(Recovery, AbortPolicyRethrowsRankFailure) {
  const Params params{4, 4, 1, 2};
  const api::Communicator comm(params);
  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.dead_rank = 2;
  spec.dead_after_instrs = 0;
  api::FtRunOptions opt = ft_options(spec);
  opt.policy = api::FailurePolicy::kAbort;
  EXPECT_THROW((void)comm.run_broadcast_ft(tu::of_str("x"), 0, opt),
               exec::RankFailure);
}

TEST(Recovery, FaultFreeRunReportsOkWithIdentitySurvivors) {
  const Params params{4, 4, 1, 2};
  const api::Communicator comm(params);
  const Bytes payload = tu::of_str("nothing goes wrong");
  const api::FtRunResult res = comm.run_broadcast_ft(payload, 0);
  EXPECT_EQ(res.status, api::RunStatus::kOk);
  EXPECT_EQ(res.attempts, 1);
  EXPECT_TRUE(res.failed_ranks.empty());
  ASSERT_EQ(res.survivors.size(), 4u);
  for (ProcId p = 0; p < 4; ++p) {
    EXPECT_EQ(res.survivors[static_cast<std::size_t>(p)], p);
    EXPECT_EQ(res.report.item_at(p, 0), payload);
  }
}

}  // namespace
}  // namespace logpc
