#include "exec/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/communicator.hpp"
#include "bcast/all_to_all.hpp"
#include "bcast/reduction.hpp"
#include "bcast/single_item.hpp"
#include "exec_test_util.hpp"
#include "obs/critical_path.hpp"
#include "runtime/planner.hpp"
#include "sum/executor.hpp"
#include "sum/summation_tree.hpp"
#include "validate/checker.hpp"

namespace logpc::exec {
namespace {

namespace tu = testutil;
using runtime::PlanKey;
using runtime::Planner;

TEST(CompileBroadcast, LowersScheduleToStreams) {
  const Params params{8, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const Program prog = compile_broadcast(s);
  ASSERT_EQ(prog.procs.size(), 8u);
  EXPECT_EQ(prog.mode, Mode::kMove);
  EXPECT_EQ(prog.num_messages, s.sends().size());
  EXPECT_EQ(prog.predicted_makespan, s.makespan());
  // Exactly P-1 receives across all streams (everyone but the root learns
  // the item once), and one link per transmission in a tree.
  std::size_t recvs = 0;
  for (const auto& ins : prog.instrs) {
    if (ins.op == OpCode::kRecv) ++recvs;
  }
  EXPECT_EQ(recvs, 7u);
  EXPECT_EQ(prog.links.size(), s.sends().size());
}

TEST(CompileBroadcast, RefusesPlanSendingUnheldItem) {
  Schedule s(Params{2, 2, 0, 1}, 1);
  s.add_send(0, /*from=*/0, /*to=*/1, /*item=*/0);  // no initial placement
  EXPECT_THROW((void)compile_broadcast(s), std::invalid_argument);
}

TEST(Engine, SingleItemBroadcastDeliversBytesEverywhere) {
  const Params params{8, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const Program prog = compile_broadcast(s);
  Engine engine;
  const Bytes payload = tu::of_str("the one true datum");
  const ExecReport report =
      engine.run(prog, Items{std::vector<Bytes>{payload}});

  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(report.item_at(p, 0), payload) << "P" << p;
  }
  EXPECT_EQ(report.messages, s.sends().size());
  EXPECT_GT(report.wall_ns, 0u);
  EXPECT_EQ(report.predicted_makespan, s.makespan());
  EXPECT_TRUE(validate::check_delivery_order(s, report.deliveries()).ok());
  EXPECT_LE(report.max_mailbox_occupancy, report.mailbox_capacity);
}

TEST(Engine, KItemBroadcastDeliversEveryItemOnce) {
  const Params physical{9, 3, 1, 2};
  const auto plan =
      Planner::build_uncached(PlanKey::kitem(physical, 6));
  const Program prog = compile_broadcast(plan.schedule, "kitem");
  Engine engine;
  std::vector<Bytes> items;
  for (int i = 0; i < plan.schedule.num_items(); ++i) {
    items.push_back(tu::of_str("item-" + std::to_string(i)));
  }
  const ExecReport report = engine.run(prog, Items{items});

  const int P = plan.schedule.params().P;
  for (ProcId p = 0; p < P; ++p) {
    for (int i = 0; i < plan.schedule.num_items(); ++i) {
      EXPECT_EQ(report.item_at(p, i), items[static_cast<std::size_t>(i)])
          << "P" << p << " item " << i;
    }
  }
  EXPECT_TRUE(
      validate::check_delivery_order(plan.schedule, report.deliveries()).ok());
  EXPECT_LE(report.max_mailbox_occupancy, report.mailbox_capacity);
}

TEST(Engine, SegmentRunCoalescesToTheBulkShape) {
  // A segmented run over one logical payload must report exactly what the
  // bulk single-item run reports: one contiguous buffer per processor,
  // byte-identical to the payload — even when the payload does not divide
  // evenly into segments.
  const Params params{8, 4, 1, 2};
  const int k = 4;
  const auto plan = Planner::build_uncached(PlanKey::kitem(params, k));
  const Program prog = compile_broadcast(plan.schedule, "kitem-seg");
  Bytes payload(4099);  // 4099 = 4*1024 + 3: three segments get the extra byte
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 131 + 7);
  }
  Engine engine;
  const ExecReport report = engine.run(prog, Payload{payload});
  ASSERT_EQ(report.items.size(), 8u);
  for (ProcId p = 0; p < params.P; ++p) {
    ASSERT_EQ(report.items[static_cast<std::size_t>(p)].size(), 1u)
        << "P" << p;
    EXPECT_EQ(report.item_at(p, 0), payload) << "P" << p;
  }
  EXPECT_TRUE(
      validate::check_delivery_order(plan.schedule, report.deliveries()).ok());
  // And it matches the bulk run bit for bit.
  const Program bulk = compile_broadcast(bcast::optimal_single_item(params));
  const ExecReport bulk_report =
      engine.run(bulk, Items{std::vector<Bytes>{payload}});
  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(report.item_at(p, 0), bulk_report.item_at(p, 0)) << "P" << p;
  }
  // On a single-item program the payload entry IS the items entry, down
  // to the zero-byte payload.
  for (const std::size_t n : {0u, 1u, 64u, 4099u}) {
    const Bytes bytes(payload.begin(),
                      payload.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(engine.run(bulk, Payload{bytes}).items,
              engine.run(bulk, Items{std::vector<Bytes>{bytes}}).items)
        << n << " bytes";
  }
}

TEST(Engine, SegmentRunValidatesItsInputs) {
  const Params params{8, 4, 1, 2};
  const auto plan = Planner::build_uncached(PlanKey::kitem(params, 4));
  const Program prog = compile_broadcast(plan.schedule, "kitem-seg");
  Engine engine;
  const Bytes payload(64, std::byte{0x5a});
  const Program fold = compile_reduction(bcast::optimal_reduction(params, 0));
  EXPECT_THROW((void)engine.run(fold, Payload{payload}),
               std::invalid_argument);  // not a move-mode program
  EXPECT_THROW((void)engine.run(prog, Payload{}),
               std::invalid_argument);  // empty payload, 4 items
  EXPECT_THROW((void)engine.run(prog, Items{std::vector<Bytes>{payload}}),
               std::invalid_argument);  // 1 item value for 4 items
}

TEST(Engine, ValidatesInputsAgainstTheProgram) {
  // The one validation point: every (Inputs alternative, Mode) pair, each
  // count check and a combiner without an operator.  Matched pairs run;
  // everything else throws std::invalid_argument before dispatch.
  const Params params{4, 4, 1, 2};
  const Program move = compile_broadcast(bcast::optimal_single_item(params));
  const Program kitem = compile_broadcast(
      Planner::build_uncached(PlanKey::kitem(params, 4)).schedule,
      "kitem-seg");
  const Program fold = compile_reduction(bcast::optimal_reduction(params, 0));
  const sum::SummationPlan plan = sum::optimal_summation(params, 30);
  const Program summation = compile_summation(plan);
  ASSERT_EQ(move.mode, Mode::kMove);
  ASSERT_EQ(kitem.num_items, 4);
  ASSERT_EQ(fold.mode, Mode::kFold);
  ASSERT_EQ(summation.mode, Mode::kSum);

  const Bytes payload(64, std::byte{0x5a});
  const std::vector<Bytes> no_items;
  const std::vector<Bytes> one_item{payload};
  const std::vector<Bytes> four_items(4, payload);
  const std::vector<Bytes> per_proc(4, tu::of_u64(1));
  const std::vector<Bytes> too_few_values(3, tu::of_u64(1));
  std::vector<std::vector<Bytes>> operands;
  for (const sum::ProcLayout& local : sum::operand_layout(plan)) {
    operands.emplace_back(local.total(), tu::of_u64(1));
  }
  std::vector<std::vector<Bytes>> one_operand_short = operands;
  for (auto& local : one_operand_short) {
    if (!local.empty()) {
      local.pop_back();
      break;
    }
  }
  const std::vector<std::vector<Bytes>> one_proc_short(operands.begin(),
                                                       operands.end() - 1);
  const Combiner add(tu::add_u64());
  const Combiner none;

  struct Case {
    const char* what;
    const Program& program;
    Inputs inputs;
    bool throws;
  };
  const std::vector<Case> cases{
      // Matched pairs run.
      {"payload, move", move, Payload{payload}, false},
      {"empty payload, single-item move", move, Payload{}, false},
      {"payload, k-item move", kitem, Payload{payload}, false},
      {"items, move", move, Items{one_item}, false},
      {"items, k-item move", kitem, Items{four_items}, false},
      {"fold values, fold", fold, FoldValues{per_proc, add}, false},
      {"operands, sum", summation, Operands{operands, add}, false},
      // The 8 mismatched pairs throw.
      {"payload, fold", fold, Payload{payload}, true},
      {"payload, sum", summation, Payload{payload}, true},
      {"items, fold", fold, Items{per_proc}, true},
      {"items, sum", summation, Items{one_item}, true},
      {"fold values, move", move, FoldValues{one_item, add}, true},
      {"fold values, sum", summation, FoldValues{per_proc, add}, true},
      {"operands, move", move, Operands{operands, add}, true},
      {"operands, fold", fold, Operands{operands, add}, true},
      // Count checks.
      {"no items, single-item move", move, Items{no_items}, true},
      {"1 item value, 4 items", kitem, Items{one_item}, true},
      {"empty payload, 4 items", kitem, Payload{}, true},
      {"3 fold values, P = 4", fold, FoldValues{too_few_values, add}, true},
      {"one operand short", summation, Operands{one_operand_short, add},
       true},
      {"one proc's operands short", summation, Operands{one_proc_short, add},
       true},
      // A default-constructed Combiner has no operator.
      {"no combiner, fold", fold, FoldValues{per_proc, none}, true},
      {"no combiner, sum", summation, Operands{operands, none}, true},
  };
  Engine engine;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    if (c.throws) {
      EXPECT_THROW((void)engine.run(c.program, c.inputs),
                   std::invalid_argument);
    } else {
      EXPECT_NO_THROW((void)engine.run(c.program, c.inputs));
    }
  }
}

TEST(Engine, AllToAllKDeliversAllItems) {
  const Params params{8, 6, 1, 2};
  const int k = 2;
  const Schedule s = bcast::all_to_all_k(params, k);
  const Program prog = compile_broadcast(s, "alltoall");
  Engine engine;
  std::vector<Bytes> items;
  for (int i = 0; i < s.num_items(); ++i) {
    items.push_back(tu::of_u64(1000u + static_cast<std::uint64_t>(i)));
  }
  const ExecReport report = engine.run(prog, Items{items});
  for (ProcId p = 0; p < params.P; ++p) {
    for (int i = 0; i < s.num_items(); ++i) {
      EXPECT_EQ(tu::to_u64(report.item_at(p, i)),
                1000u + static_cast<std::uint64_t>(i));
    }
  }
  EXPECT_TRUE(validate::check_delivery_order(s, report.deliveries()).ok());
  EXPECT_LE(report.max_mailbox_occupancy, report.mailbox_capacity);
}

TEST(Engine, ScatterAndGatherMoveDistinctItems) {
  const Params params{8, 4, 1, 2};
  const api::Communicator comm(params);
  Engine engine;
  {
    const Program prog = compile_broadcast(comm.scatter(0), "scatter");
    std::vector<Bytes> items;
    for (int i = 0; i < params.P; ++i) {
      items.push_back(tu::of_str("shard" + std::to_string(i)));
    }
    const ExecReport report = engine.run(prog, Items{items});
    for (ProcId p = 0; p < params.P; ++p) {
      EXPECT_EQ(tu::to_str(report.item_at(p, p)),
                "shard" + std::to_string(p));
    }
  }
  {
    const Program prog = compile_broadcast(comm.gather(0), "gather");
    std::vector<Bytes> items;
    for (int i = 0; i < params.P; ++i) {
      items.push_back(tu::of_str("part" + std::to_string(i)));
    }
    const ExecReport report = engine.run(prog, Items{items});
    for (ProcId p = 0; p < params.P; ++p) {
      EXPECT_EQ(tu::to_str(report.item_at(0, p)), "part" + std::to_string(p));
    }
  }
}

TEST(Engine, ReductionFoldsInArrivalOrder) {
  const Params params{8, 4, 1, 2};
  const bcast::ReductionPlan plan = bcast::optimal_reduction(params, 0);
  const Program prog = compile_reduction(plan);
  Engine engine;

  // Commutative check: sum of all contributions.
  {
    std::vector<Bytes> values;
    std::uint64_t total = 0;
    for (int p = 0; p < params.P; ++p) {
      values.push_back(tu::of_u64(static_cast<std::uint64_t>(p * p + 1)));
      total += static_cast<std::uint64_t>(p * p + 1);
    }
    const ExecReport report =
        engine.run(prog, FoldValues{values, tu::add_u64()});
    EXPECT_EQ(tu::to_u64(report.folded_at(0)), total);
  }

  // Non-commutative check: the engine's fold must equal the plan replay's.
  {
    std::vector<Bytes> values;
    std::vector<std::string> strings;
    for (int p = 0; p < params.P; ++p) {
      strings.push_back(
          std::string("<").append(std::to_string(p)).append(">"));
      values.push_back(tu::of_str(strings.back()));
    }
    const std::string expected = bcast::execute_reduction<std::string>(
        plan, strings,
        [](const std::string& a, const std::string& b) { return a + b; });
    const ExecReport report =
        engine.run(prog, FoldValues{values, tu::concat()});
    EXPECT_EQ(tu::to_str(report.folded_at(0)), expected);
  }
}

TEST(Engine, SummationMatchesSequentialFoldInCombinationOrder) {
  const Params params{8, 4, 1, 2};  // g >= o + 1
  const Time t = 30;
  const sum::SummationPlan plan = sum::optimal_summation(params, t);
  ASSERT_GT(plan.total_operands, 0u);
  const Program prog = compile_summation(plan);
  Engine engine;

  const auto layout = sum::operand_layout(plan);
  std::vector<std::vector<Bytes>> operands(plan.procs.size());
  std::vector<std::vector<std::string>> op_strings(plan.procs.size());
  int next = 0;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    for (std::size_t j = 0; j < layout[i].total(); ++j) {
      op_strings[i].push_back(
          std::string("[").append(std::to_string(next++)).append("]"));
      operands[i].push_back(tu::of_str(op_strings[i].back()));
    }
  }

  std::string expected;
  for (const auto& [proc, idx] : sum::combination_order(plan)) {
    // combination_order is in (processor id, local index) space; map the
    // processor id back to its plan index.
    for (std::size_t i = 0; i < plan.procs.size(); ++i) {
      if (plan.procs[i].proc == proc) {
        expected += op_strings[i][idx];
        break;
      }
    }
  }

  const ExecReport report =
      engine.run(prog, Operands{operands, tu::concat()});
  EXPECT_EQ(tu::to_str(report.folded_at(plan.root)), expected);

  // And the commutative sanity: iota operands, compare with the reference
  // value-level executor.
  std::vector<std::vector<Bytes>> iota(plan.procs.size());
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    for (std::size_t j = 0; j < layout[i].total(); ++j) {
      iota[i].push_back(tu::of_u64(n++));
    }
  }
  const ExecReport sums = engine.run(prog, Operands{iota, tu::add_u64()});
  EXPECT_EQ(tu::to_u64(sums.folded_at(plan.root)),
            static_cast<std::uint64_t>(sum::execute_iota_sum(plan)));
}

TEST(Engine, MeasureFitsPlausibleParameters) {
  const Params params{8, 6, 1, 2};
  const Schedule s = bcast::all_to_all(params);
  Engine engine;
  std::vector<Bytes> items;
  for (int i = 0; i < params.P; ++i) items.push_back(tu::of_u64(1));
  const ExecReport report =
      engine.run(compile_broadcast(s, "alltoall"), Items{items});

  const obs::RunProfile profile = obs::analyze(report);
  const obs::MeasuredLogP& fit = profile.fit;
  EXPECT_GT(fit.overhead_samples, 0u);
  EXPECT_GT(fit.gap_samples, 0u);  // every proc sends P-1 times
  EXPECT_GT(fit.latency_samples, 0u);
  EXPECT_GE(fit.L_ns, 0.0);
  EXPECT_GE(fit.o_ns, 0.0);
  EXPECT_GE(fit.g_ns, fit.o_ns);
  EXPECT_GT(profile.ns_per_cycle, 0.0);
}

TEST(Engine, ReusesPoolAcrossRunsAndSizes) {
  Engine engine;
  for (const int P : {2, 8, 5, 8, 12}) {
    const Params params{P, 4, 1, 2};
    const Schedule s = bcast::optimal_single_item(params);
    const ExecReport report = engine.run(
        compile_broadcast(s), Items{std::vector<Bytes>{tu::of_str("x")}});
    for (ProcId p = 0; p < P; ++p) {
      EXPECT_EQ(tu::to_str(report.item_at(p, 0)), "x");
    }
  }
}

TEST(Engine, ModeMismatchThrows) {
  const Params params{4, 2, 1, 1};
  const Program prog = compile_broadcast(bcast::optimal_single_item(params));
  Engine engine;
  EXPECT_THROW(
      (void)engine.run(prog, FoldValues{std::vector<Bytes>{tu::of_u64(1)},
                                        tu::add_u64()}),
      std::invalid_argument);
}

TEST(Engine, WrongPayloadCountThrows) {
  const Params params{4, 2, 1, 1};
  const Program prog = compile_broadcast(bcast::optimal_single_item(params));
  Engine engine;
  EXPECT_THROW((void)engine.run(prog, Items{std::vector<Bytes>{}}),
               std::invalid_argument);
}

TEST(Engine, DeadlockThrowsAtOnceAndLeavesTheEngineReusable) {
  // A run in which no rank can advance is a deadlock: the engine must
  // throw at once, naming the blocked rank and its pending instruction,
  // instead of hanging — and leave no stale message behind for the next
  // run.  An injector over an empty FaultSpec changes none of that: no
  // rank crashed, so it is the same deadlock error, not a RankFailure.
  Program impossible;
  impossible.params = Params{2, 2, 0, 1};
  impossible.mode = Mode::kMove;
  impossible.label = "impossible";
  impossible.num_items = 1;
  impossible.links.push_back(Link{1, 0});
  tu::set_streams(impossible,
                  {{Instr{OpCode::kRecv, /*peer=*/1, /*item=*/0, 0,
                          /*link=*/0, 0}},
                   {}});

  Engine engine;
  const fault::Injector no_faults(fault::FaultSpec{});
  for (const fault::Injector* injector :
       {static_cast<const fault::Injector*>(nullptr), &no_faults}) {
    SCOPED_TRACE(injector == nullptr ? "no injector" : "empty FaultSpec");
    const auto t0 = std::chrono::steady_clock::now();
    try {
      (void)engine.run(impossible, Items{std::vector<Bytes>{tu::of_u64(1)}},
                       injector);
      FAIL() << "expected a deadlock error";
    } catch (const RankFailure& e) {
      FAIL() << "no rank crashed, yet: " << e.what();
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
      EXPECT_NE(what.find("P0 recv item 0 from P1 (instr 0)"),
                std::string::npos)
          << what;
    }
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  }

  // The same engine must run a real collective immediately afterwards:
  // the abort left no stale message behind.
  const Params params{8, 4, 1, 2};
  const Schedule s = bcast::optimal_single_item(params);
  const ExecReport report = engine.run(
      compile_broadcast(s), Items{std::vector<Bytes>{tu::of_str("alive")}});
  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(tu::to_str(report.item_at(p, 0)), "alive");
  }
}

TEST(Engine, ReportsWarmPoolAndWarmBuffersAcrossRuns) {
  const Params params{8, 4, 1, 2};
  const Program prog = compile_broadcast(bcast::optimal_single_item(params));
  Engine engine;

  // A fresh engine's first run builds its run context: a cold start.
  const ExecReport first =
      engine.run(prog, Items{std::vector<Bytes>{tu::of_str("a")}});
  EXPECT_FALSE(first.warm_buffers);

  // Same shape immediately after: recycled mailboxes — and the recycled
  // rings must deliver the *new* payload.
  const ExecReport second =
      engine.run(prog, Items{std::vector<Bytes>{tu::of_str("b")}});
  EXPECT_TRUE(second.warm_buffers);
  for (ProcId p = 0; p < params.P; ++p) {
    EXPECT_EQ(tu::to_str(second.item_at(p, 0)), "b");
  }

  // A different shape rebuilds the context.
  const Params smaller{5, 4, 1, 2};
  const ExecReport third = engine.run(
      compile_broadcast(bcast::optimal_single_item(smaller)),
      Items{std::vector<Bytes>{tu::of_str("c")}});
  EXPECT_FALSE(third.warm_buffers);
  for (ProcId p = 0; p < smaller.P; ++p) {
    EXPECT_EQ(tu::to_str(third.item_at(p, 0)), "c");
  }
}

TEST(Engine, LargeMachinesRunByteExactOnOneThread) {
  // Ranks are cursors, not threads: a 4096-rank broadcast and a 128-rank
  // all-to-all (16,256 messages) run byte-exact, in plan order, exactly
  // once.
  Engine engine;
  {
    const Params params{4096, 4, 1, 2};
    const Schedule s = bcast::optimal_single_item(params);
    const Bytes payload = tu::of_str("four thousand ninety-six copies");
    const ExecReport report =
        engine.run(compile_broadcast(s), Items{std::vector<Bytes>{payload}});
    for (ProcId p = 0; p < params.P; ++p) {
      ASSERT_EQ(report.item_at(p, 0), payload) << "P" << p;
    }
    EXPECT_TRUE(validate::check_delivery_order(s, report.deliveries()).ok());
    EXPECT_TRUE(validate::check_exactly_once(report.deliveries()).ok());
    EXPECT_LE(report.max_mailbox_occupancy, report.mailbox_capacity);
  }
  {
    const Params params{128, 6, 1, 2};
    const Schedule s = bcast::all_to_all(params);
    std::vector<Bytes> items;
    for (int i = 0; i < s.num_items(); ++i) {
      items.push_back(tu::of_u64(7000u + static_cast<std::uint64_t>(i)));
    }
    const ExecReport report =
        engine.run(compile_broadcast(s, "alltoall"), Items{items});
    for (ProcId p = 0; p < params.P; ++p) {
      for (int i = 0; i < s.num_items(); ++i) {
        ASSERT_EQ(tu::to_u64(report.item_at(p, i)),
                  7000u + static_cast<std::uint64_t>(i))
            << "P" << p << " item " << i;
      }
    }
    EXPECT_TRUE(validate::check_delivery_order(s, report.deliveries()).ok());
    EXPECT_TRUE(validate::check_exactly_once(report.deliveries()).ok());
    EXPECT_LE(report.max_mailbox_occupancy, report.mailbox_capacity);
  }
}

// --- recorded causality: each receive names the send it popped ----------

/// The run made `recvs` receives, each naming the send its link's FIFO
/// pairs it with, and no mailbox outgrew the model's bound.
void expect_receives_name_fifo_sends(const ExecReport& report,
                                     std::size_t recvs) {
  std::size_t n = 0;
  for (const auto& d : report.deliveries()) n += d.size();
  EXPECT_EQ(n, recvs);
  EXPECT_EQ(tu::match_errors(report), "");
  EXPECT_LE(report.max_mailbox_occupancy, report.mailbox_capacity);
}

TEST(EngineCausality, BroadcastReceivesNameTheirFifoSends) {
  const Params params{8, 4, 1, 2};
  Engine engine;
  const ExecReport report =
      engine.run(compile_broadcast(bcast::optimal_single_item(params)),
                 Items{std::vector<Bytes>{tu::of_str("cause")}});
  expect_receives_name_fifo_sends(report, 7);
}

TEST(EngineCausality, ReductionReceivesNameTheirFifoSends) {
  const Params params{8, 4, 1, 2};
  const Program prog = compile_reduction(bcast::optimal_reduction(params, 0));
  std::vector<Bytes> values;
  for (int p = 0; p < params.P; ++p) {
    values.push_back(tu::of_u64(static_cast<std::uint64_t>(p)));
  }
  Engine engine;
  expect_receives_name_fifo_sends(
      engine.run(prog, FoldValues{values, tu::add_u64()}), 7);
}

TEST(EngineCausality, AllgatherReceivesNameTheirFifoSends) {
  const Params params{8, 6, 1, 2};
  const Schedule s = bcast::all_to_all(params);
  std::vector<Bytes> items;
  for (int i = 0; i < s.num_items(); ++i) items.push_back(tu::of_u64(1));
  Engine engine;
  expect_receives_name_fifo_sends(
      engine.run(compile_broadcast(s, "alltoall"), Items{items}),
      56);  // P * (P - 1)
}

TEST(EngineCausality, KItemBackToBackReceivesNameTheirFifoSends) {
  // A pipelined k-item broadcast: some rank receives several items in a
  // row on one link, so the recorded matches must tell the queued
  // messages of one link apart.
  const auto plan =
      Planner::build_uncached(PlanKey::kitem(Params{8, 3, 1, 2}, 4));
  const Program prog = compile_broadcast(plan.schedule, "kitem");
  bool back_to_back = false;
  for (std::size_t p = 0; p < prog.procs.size(); ++p) {
    const std::span<const Instr> stream = prog.stream(p);
    for (std::size_t j = 1; j < stream.size(); ++j) {
      const Instr& a = stream[j - 1];
      const Instr& b = stream[j];
      back_to_back = back_to_back || (a.op == OpCode::kRecv &&
                                      b.op == OpCode::kRecv &&
                                      a.link == b.link);
    }
  }
  ASSERT_TRUE(back_to_back);
  std::vector<Bytes> items;
  for (int i = 0; i < plan.schedule.num_items(); ++i) {
    items.push_back(tu::of_str("item-" + std::to_string(i)));
  }
  Engine engine;
  expect_receives_name_fifo_sends(engine.run(prog, Items{items}),
                                  plan.schedule.sends().size());
}

TEST(Engine, SharedEngineServesConcurrentCallersSafely) {
  // Engine::shared() documents that concurrent run() calls serialize on
  // the run mutex; hammer it from several threads and check every caller
  // gets its own intact result.
  const Params params{4, 4, 1, 2};
  const Program prog = compile_broadcast(bcast::optimal_single_item(params));
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < 5; ++i) {
        const std::string payload =
            "caller-" + std::to_string(c) + "-" + std::to_string(i);
        const ExecReport report = Engine::shared().run(
            prog, Items{std::vector<Bytes>{tu::of_str(payload)}});
        for (ProcId p = 0; p < params.P; ++p) {
          if (tu::to_str(report.item_at(p, 0)) != payload) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace logpc::exec
