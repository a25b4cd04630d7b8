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
#include "obs/critical_path.hpp"
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
using exec::Items;
using exec::Operands;
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
  const std::vector<Bytes> items{payload};
  const ExecReport report = engine.run(prog, Items{items}, &inj);

  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(report.item_at(p, 0), payload) << "P" << p;
  }
  EXPECT_TRUE(validate::check_delivery_order(s, report.deliveries()).ok());
  EXPECT_TRUE(validate::check_exactly_once(report.deliveries()).ok());
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

TEST(EngineFault, AckedReceivesNameTheOriginalSendUnderDrops) {
  // Every first delivery is dropped, so every message arrives as a resent
  // copy; each accepted copy must still name the send event that pushed
  // it, and the profiler must accept the log.
  const Params params{8, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const exec::Program prog = exec::compile_broadcast(s, "bcast-drop");
  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.drop_prob = 1.0;
  spec.max_drops_per_message = 1;
  const fault::Injector inj(spec);
  Engine engine;
  const Bytes payload = tu::of_str("named after a retransmit");
  const ExecReport report =
      engine.run(prog, Items{std::vector<Bytes>{payload}}, &inj);
  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(report.item_at(p, 0), payload) << "P" << p;
  }
  EXPECT_GT(report.retries, 0u);
  EXPECT_EQ(tu::match_errors(report), "");
  EXPECT_LE(report.max_mailbox_occupancy, report.mailbox_capacity);
  const obs::RunProfile profile = obs::analyze(report);
  EXPECT_FALSE(profile.critical_path.empty());
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
  const std::vector<Bytes> items{tu::of_str("deterministic")};
  const ExecReport first = engine.run(prog, Items{items}, &inj);
  const ExecReport second = engine.run(prog, Items{items}, &inj);
  ASSERT_EQ(first.fault_events.size(), second.fault_events.size());
  for (std::size_t p = 0; p < first.fault_events.size(); ++p) {
    EXPECT_EQ(first.fault_events[p], second.fault_events[p]) << "P" << p;
  }
  // One resend per injected drop, so the count is a function of the seed.
  EXPECT_EQ(first.retries, second.retries);
}

TEST(EngineFault, PipelinedKItemBroadcastCompletesUnderAnInjector) {
  // The k-item pipeline's sends form a cycle (P1 sends to P4 while P4
  // sends to P2, ...).  Each send completes at its push under an injector
  // as without one, so the run finishes byte-exact whether the spec is
  // empty or drops half the deliveries.
  Planner planner;
  const auto plan = planner.plan(PlanKey::kitem(Params{8, 3, 1, 2}, 4));
  const exec::Program prog = exec::compile_plan(*plan, "kitem");
  ASSERT_EQ(prog.num_items, 4);
  const Bytes payload = tu::of_str("a pipelined payload in four items");
  Engine engine;
  const ExecReport clean = engine.run(prog, exec::Payload{payload});

  fault::FaultSpec lossy;
  lossy.seed = env_seed();
  lossy.drop_prob = 0.5;
  for (const fault::FaultSpec& spec : {fault::FaultSpec{}, lossy}) {
    SCOPED_TRACE(spec.drop_prob);
    const fault::Injector inj(spec);
    const ExecReport report = engine.run(prog, exec::Payload{payload}, &inj);
    EXPECT_EQ(report.messages, clean.messages);
    for (ProcId p = 0; p < prog.params.P; ++p) {
      EXPECT_EQ(report.items[static_cast<std::size_t>(p)],
                std::vector<Bytes>{payload})
          << "P" << p;
    }
    EXPECT_TRUE(validate::check_delivery_order(runtime::plan_schedule(*plan),
                                               report.deliveries())
                    .ok());
    EXPECT_TRUE(validate::check_exactly_once(report.deliveries()).ok());
    if (spec.drop_prob == 0.0) {
      EXPECT_EQ(report.retries, 0u);
    }
  }
}

TEST(EngineFault, SlowRankDegradesLatencyNotMembership) {
  const Params params{6, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const exec::Program prog = exec::compile_broadcast(s, "bcast-slow");
  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.slow_ranks = {1};
  spec.slow_stall_ns = 200'000;
  const fault::Injector inj(spec);
  Engine engine;
  const Bytes payload = tu::of_str("slow but alive");
  const std::vector<Bytes> items{payload};
  const ExecReport report = engine.run(prog, Items{items}, &inj);  // no throw
  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(report.item_at(p, 0), payload);
  }
  ASSERT_FALSE(report.fault_events[1].empty());
  EXPECT_EQ(report.fault_events[1][0].kind, fault::FaultKind::kSlow);
}

TEST(EngineFault, EverySendEventEndsAtItsPush) {
  // A send completes at its push, with or without an injector, so its
  // logged end_ns equals its xfer_ns and the profiler's decomposition has
  // nothing to charge after the push: fault-free, and under drops, delays
  // and a slow rank at once.
  const Params params{8, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const exec::Program prog = exec::compile_broadcast(s, "bcast-send-end");
  fault::FaultSpec faulty;
  faulty.seed = env_seed();
  faulty.drop_prob = 0.5;
  faulty.delay_prob = 0.5;
  faulty.delay_ns = 20'000;
  faulty.slow_ranks = {2};
  faulty.slow_stall_ns = 10'000;
  Engine engine;
  const Bytes payload = tu::of_str("ends at the push");
  const std::vector<Bytes> items{payload};
  const ExecReport clean = engine.run(prog, Items{items});
  const fault::Injector inj(faulty);
  const ExecReport lossy = engine.run(prog, Items{items}, &inj);
  ASSERT_FALSE(lossy.fault_events[2].empty()) << "the slow rank stalled";
  for (const ExecReport* report : {&clean, &lossy}) {
    std::size_t sends = 0;
    for (std::size_t p = 0; p < report->events.size(); ++p) {
      for (const exec::ExecEvent& ev : report->events[p]) {
        if (ev.kind != exec::ExecEvent::Kind::kSend) continue;
        ++sends;
        EXPECT_EQ(ev.end_ns, ev.xfer_ns) << "P" << p << " send to P"
                                         << ev.peer;
      }
    }
    EXPECT_EQ(sends, s.sends().size());
    for (ProcId p = 0; p < params.P; ++p) {
      EXPECT_EQ(report->item_at(p, 0), payload) << "P" << p;
    }
  }
}

TEST(EngineFault, StalledRankNeverResumesBeforeItsNotBeforeTime) {
  // A stalled run may stop sleeping before a stall ends, but no rank may
  // go on before its own not-before time: a delayed send is pushed no
  // sooner than its delay after it began, and a slow rank begins each
  // instruction no sooner than its stall after the previous one ended.
  const Params params{8, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const exec::Program prog = exec::compile_broadcast(s, "bcast-stall");
  const Bytes payload = tu::of_str("stalled, never early");
  const std::vector<Bytes> items{payload};
  Engine engine;

  fault::FaultSpec delayed;
  delayed.seed = env_seed();
  delayed.delay_prob = 1.0;
  delayed.delay_ns = 50'000;
  const fault::Injector delay_inj(delayed);
  const ExecReport dr = engine.run(prog, Items{items}, &delay_inj);
  std::size_t sends = 0;
  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(dr.item_at(p, 0), payload) << "P" << p;
    for (const exec::ExecEvent& ev : dr.events[static_cast<std::size_t>(p)]) {
      if (ev.kind != exec::ExecEvent::Kind::kSend) continue;
      ++sends;
      EXPECT_GE(ev.xfer_ns - ev.start_ns, delayed.delay_ns) << "P" << p;
    }
  }
  EXPECT_EQ(sends, static_cast<std::size_t>(params.P - 1));

  fault::FaultSpec slow;
  slow.seed = env_seed();
  slow.slow_ranks = {1};
  slow.slow_stall_ns = 200'000;
  const fault::Injector slow_inj(slow);
  const ExecReport sr = engine.run(prog, Items{items}, &slow_inj);
  const std::vector<exec::ExecEvent>& evs = sr.events[1];
  ASSERT_FALSE(evs.empty());
  EXPECT_GE(evs.front().start_ns, slow.slow_stall_ns);
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_GE(evs[i].start_ns - evs[i - 1].end_ns, slow.slow_stall_ns)
        << "instruction " << i;
  }
  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(sr.item_at(p, 0), payload) << "P" << p;
  }
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
    const std::vector<Bytes> items{tu::of_str("x")};
    (void)engine.run(prog, Items{items}, &inj);
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
      operands[i].push_back(tu::of_str(
          std::string("[").append(std::to_string(next++)).append("]")));
    }
  }

  Engine engine;
  const ExecReport clean = engine.run(prog, Operands{operands, tu::concat()});

  fault::FaultSpec spec;
  spec.seed = env_seed();
  spec.drop_prob = 0.6;
  const fault::Injector inj(spec);
  const ExecReport faulty =
      engine.run(prog, Operands{operands, tu::concat()}, &inj);

  // Retried deliveries must not perturb the plan's combination order: the
  // concatenation (associative, NOT commutative) must match the fault-free
  // fold byte for byte.
  EXPECT_EQ(tu::to_str(faulty.folded_at(plan.root)),
            tu::to_str(clean.folded_at(plan.root)));
  EXPECT_TRUE(validate::check_exactly_once(faulty.deliveries()).ok());
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
  EXPECT_EQ(runtime::plan_schedule(degraded).params().P, 7);
  // Same construction as asking for the 7-processor machine directly: the
  // broadcast tree is universal, so the degraded plan is itself optimal.
  Params compact = params;
  compact.P = 7;
  const runtime::Plan direct =
      Planner::build_uncached(PlanKey::make(Problem::kBroadcast, compact));
  EXPECT_EQ(degraded.completion, direct.completion);
  EXPECT_EQ(runtime::plan_schedule(degraded).sends().size(),
            runtime::plan_schedule(direct).sends().size());
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
  EXPECT_EQ(runtime::plan_schedule(*hit).params().P, 7);
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
            exec::compile_broadcast(runtime::plan_schedule(*hit)));
}

// --- the recovery layer (api::Communicator::run_broadcast_ft) -----------

/// A rank (never the root) with at least two instructions, so killing it
/// after its first instruction is a genuine mid-collective crash whatever
/// shape the optimal tree takes.
ProcId pick_relay_rank(const exec::Program& prog) {
  for (std::size_t p = 1; p < prog.procs.size(); ++p) {
    if (prog.procs[p].size() >= 2) return static_cast<ProcId>(p);
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
      validate::check_delivery_order(runtime::plan_schedule(*res.plan),
                                     res.report.deliveries())
          .ok());
  EXPECT_TRUE(validate::check_exactly_once(res.report.deliveries()).ok());
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
