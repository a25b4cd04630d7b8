#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "api/communicator.hpp"
#include "exec/engine.hpp"
#include "exec/program.hpp"
#include "exec_test_util.hpp"
#include "runtime/planner.hpp"
#include "sum/executor.hpp"
#include "validate/checker.hpp"

/// Randomized properties of the execution engine, per the paper's two
/// problems: a k-item broadcast on real threads delivers every item to
/// every processor exactly once, and an executed summation equals the
/// sequential left-fold of the inputs in `combination_order` — including
/// for a non-commutative operator, where any deviation from the planned
/// order changes the bytes.

namespace logpc::exec {
namespace {

namespace tu = testutil;

/// One shared engine: the pool grows to the largest random P and is
/// reused, which also exercises epoch-barrier reuse across shapes.
Engine& engine() { return Engine::shared(); }

TEST(ExecProperty, BroadcastDeliversEveryItemExactlyOnce) {
  std::mt19937 rng(20260805);
  std::uniform_int_distribution<int> pick_P(2, 12);
  std::uniform_int_distribution<Time> pick_L(1, 10);
  std::uniform_int_distribution<Time> pick_o(0, 3);
  std::uniform_int_distribution<Time> pick_g(1, 4);
  std::uniform_int_distribution<int> pick_k(1, 6);
  std::uniform_int_distribution<int> pick_len(1, 48);
  std::uniform_int_distribution<int> pick_byte(0, 255);

  for (int trial = 0; trial < 20; ++trial) {
    const Params machine{pick_P(rng), pick_L(rng), pick_o(rng), pick_g(rng)};
    const int k = pick_k(rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 machine.to_string() + " k=" + std::to_string(k));

    const runtime::Plan plan = runtime::Planner::build_uncached(
        runtime::PlanKey::kitem(machine, k));
    const Schedule& s = plan.schedule;
    const Program prog = compile_broadcast(s, "prop-bcast");

    std::vector<Bytes> payloads;
    payloads.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      Bytes b(static_cast<std::size_t>(pick_len(rng)));
      for (auto& byte : b) {
        byte = static_cast<std::byte>(pick_byte(rng));
      }
      payloads.push_back(std::move(b));
    }

    const ExecReport report = engine().run(prog, Items{payloads});

    // Every processor ends up holding every item, byte-exact.
    const auto P = static_cast<std::size_t>(s.params().P);
    for (std::size_t p = 0; p < P; ++p) {
      for (int i = 0; i < k; ++i) {
        EXPECT_EQ(report.item_at(static_cast<ProcId>(p), i),
                  payloads[static_cast<std::size_t>(i)])
            << "P" << p << " item " << i;
      }
    }

    // Exactly once: each (processor, item) is either an initial placement
    // or delivered by precisely one reception — never both, never twice.
    std::vector<std::vector<int>> placed(
        P, std::vector<int>(static_cast<std::size_t>(k), 0));
    for (const auto& init : s.initials()) {
      ++placed[static_cast<std::size_t>(init.proc)]
              [static_cast<std::size_t>(init.item)];
    }
    const auto deliveries = report.deliveries();
    for (std::size_t p = 0; p < P; ++p) {
      for (const auto& d : deliveries[p]) {
        ++placed[p][static_cast<std::size_t>(d.item)];
      }
      for (int i = 0; i < k; ++i) {
        EXPECT_EQ(placed[p][static_cast<std::size_t>(i)], 1)
            << "P" << p << " item " << i << " not delivered exactly once";
      }
    }

    // And the executed delivery sequence is the planned one.
    const validate::CheckResult order =
        validate::check_delivery_order(s, deliveries);
    EXPECT_TRUE(order.ok()) << order.summary();
  }
}

TEST(ExecProperty, SummationEqualsSequentialFoldInCombinationOrder) {
  std::mt19937 rng(19930615);
  std::uniform_int_distribution<int> pick_P(2, 10);
  std::uniform_int_distribution<Time> pick_L(1, 8);
  std::uniform_int_distribution<Time> pick_o(0, 2);
  std::uniform_int_distribution<Time> pick_gap(1, 3);

  for (int trial = 0; trial < 20; ++trial) {
    const Time o = pick_o(rng);
    // Summation plans require g >= o + 1.
    const Params machine{pick_P(rng), pick_L(rng), o, o + pick_gap(rng)};
    const api::Communicator comm(machine);
    std::uniform_int_distribution<Count> pick_n(
        static_cast<Count>(machine.P), static_cast<Count>(machine.P) + 50);
    const Count n = pick_n(rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 machine.to_string() + " n=" + std::to_string(n));

    const sum::SummationPlan plan = comm.reduce_operands(n);
    const auto layout = sum::operand_layout(plan);

    // Non-commutative operands: "(i:j)" tags plan index and local slot, so
    // any fold-order deviation produces visibly different bytes.
    std::vector<std::vector<Bytes>> operands(plan.procs.size());
    std::vector<std::vector<std::string>> strings(plan.procs.size());
    for (std::size_t i = 0; i < layout.size(); ++i) {
      for (std::size_t j = 0; j < layout[i].total(); ++j) {
        strings[i].push_back(std::string("(")
                                 .append(std::to_string(i))
                                 .append(":")
                                 .append(std::to_string(j))
                                 .append(")"));
        operands[i].push_back(tu::of_str(strings[i].back()));
      }
    }

    // Sequential left-fold in the plan's combination order.
    std::map<ProcId, std::size_t> plan_index;
    for (std::size_t i = 0; i < plan.procs.size(); ++i) {
      plan_index[plan.procs[i].proc] = i;
    }
    std::string expected;
    for (const auto& [proc, local] : sum::combination_order(plan)) {
      expected += strings[plan_index.at(proc)][local];
    }

    const Program prog = compile_summation(plan);
    const ExecReport report =
        engine().run(prog, Operands{operands, tu::concat()});
    EXPECT_EQ(tu::to_str(report.folded_at(plan.root)), expected);

    // Cross-check the commutative path against the reference executor.
    std::vector<std::vector<Bytes>> numbers(plan.procs.size());
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < layout.size(); ++i) {
      for (std::size_t j = 0; j < layout[i].total(); ++j) {
        numbers[i].push_back(tu::of_u64(v++));
      }
    }
    const ExecReport sums =
        engine().run(compile_summation(plan),
                     Operands{numbers, tu::add_u64()});
    EXPECT_EQ(tu::to_u64(sums.folded_at(plan.root)),
              static_cast<std::uint64_t>(sum::execute_iota_sum(plan)));
  }
}

}  // namespace
}  // namespace logpc::exec
