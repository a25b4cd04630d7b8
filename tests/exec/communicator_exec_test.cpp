#include "api/communicator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec_test_util.hpp"
#include "sum/executor.hpp"

/// api::Communicator's plan-then-execute entry points, including the
/// concurrent mixed workload the TSan suite runs: N threads planning and
/// executing different collectives against one shared Planner, with
/// byte-exact assertions on every result.

namespace logpc::api {
namespace {

namespace tu = exec::testutil;
using exec::Bytes;

TEST(CommunicatorExec, RunBroadcastIsByteExact) {
  const Communicator comm(Params{8, 4, 1, 2});
  const Bytes payload = tu::of_str("broadcast me");
  const exec::ExecReport report =
      comm.run_broadcast(std::span<const std::byte>(payload));
  for (ProcId p = 0; p < comm.size(); ++p) {
    EXPECT_EQ(report.item_at(p, 0), payload);
  }
  EXPECT_EQ(report.label, "bcast");
  EXPECT_EQ(report.predicted_makespan, comm.bcast_time());
}

TEST(CommunicatorExec, RunBroadcastNonZeroRoot) {
  const Communicator comm(Params{9, 3, 1, 2});
  const Bytes payload = tu::of_str("rooted at five");
  const exec::ExecReport report =
      comm.run_broadcast(std::span<const std::byte>(payload), /*root=*/5);
  for (ProcId p = 0; p < comm.size(); ++p) {
    EXPECT_EQ(report.item_at(p, 0), payload);
  }
}

TEST(CommunicatorExec, RunBroadcastOfZeroBytesGivesEveryRankAnEmptyItem) {
  const Communicator comm(Params{8, 4, 1, 2});
  const exec::ExecReport report = comm.run_broadcast({});
  ASSERT_EQ(report.items.size(), 8u);
  for (ProcId p = 0; p < comm.size(); ++p) {
    ASSERT_EQ(report.items[static_cast<std::size_t>(p)].size(), 1u);
    EXPECT_TRUE(report.item_at(p, 0).empty());
  }
  EXPECT_EQ(report.messages, 7u);
}

TEST(CommunicatorExec, RunAllgatherGivesEveryoneEverything) {
  const Communicator comm(Params{8, 6, 1, 2});
  std::vector<Bytes> contributions;
  for (int p = 0; p < comm.size(); ++p) {
    contributions.push_back(tu::of_str("from-" + std::to_string(p)));
  }
  const exec::ExecReport report = comm.run_allgather(contributions);
  for (ProcId p = 0; p < comm.size(); ++p) {
    for (ProcId q = 0; q < comm.size(); ++q) {
      EXPECT_EQ(report.item_at(p, q),
                contributions[static_cast<std::size_t>(q)]);
    }
  }
  EXPECT_EQ(report.predicted_makespan, comm.alltoall_time(1));
}

TEST(CommunicatorExec, RunReduceMatchesPlanReplay) {
  const Communicator comm(Params{8, 4, 1, 2});
  std::vector<Bytes> values;
  std::vector<std::string> strings;
  for (int p = 0; p < comm.size(); ++p) {
    strings.push_back(std::string("v").append(std::to_string(p)).append(";"));
    values.push_back(tu::of_str(strings.back()));
  }
  const std::string expected = bcast::execute_reduction<std::string>(
      comm.reduce(0), strings,
      [](const std::string& a, const std::string& b) { return a + b; });
  const exec::ExecReport report =
      comm.run_reduce(values, tu::concat(), /*root=*/0);
  EXPECT_EQ(tu::to_str(report.folded_at(0)), expected);
}

TEST(CommunicatorExec, RunReduceOperandsMatchesReferenceExecutor) {
  const Communicator comm(Params{8, 4, 1, 2});
  const Count n = 40;
  const sum::SummationPlan plan = comm.reduce_operands(n);
  const auto layout = sum::operand_layout(plan);
  std::vector<std::vector<Bytes>> operands(plan.procs.size());
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    for (std::size_t j = 0; j < layout[i].total(); ++j) {
      operands[i].push_back(tu::of_u64(v++));
    }
  }
  const exec::ExecReport report =
      comm.run_reduce_operands(n, operands, tu::add_u64());
  EXPECT_EQ(tu::to_u64(report.folded_at(plan.root)),
            static_cast<std::uint64_t>(sum::execute_iota_sum(plan)));
}

/// The TSan acceptance scenario: 8 threads, each running a different mix of
/// plan+execute collectives against ONE shared planner (and its shared
/// cache), with per-thread engines so executions genuinely overlap.
TEST(CommunicatorExec, ConcurrentMixedWorkloadsStayByteExact) {
  const auto planner = std::make_shared<runtime::Planner>();
  constexpr int kThreads = 8;
  constexpr int kIters = 6;
  std::atomic<int> failures{0};

  auto check = [&](bool ok) {
    if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &planner, &check] {
      // Two machine shapes so threads both share and miss cache entries.
      const Params machine =
          t % 2 == 0 ? Params{8, 4, 1, 2} : Params{9, 6, 1, 3};
      const Communicator comm(machine, planner);
      exec::Engine engine;  // per-thread: executions overlap for real
      for (int i = 0; i < kIters; ++i) {
        switch ((t + i) % 4) {
          case 0: {
            const Bytes payload =
                tu::of_str(std::string("t")
                               .append(std::to_string(t))
                               .append("i")
                               .append(std::to_string(i)));
            const auto r = comm.run_broadcast(
                std::span<const std::byte>(payload), 0, &engine);
            for (ProcId p = 0; p < comm.size(); ++p) {
              check(r.item_at(p, 0) == payload);
            }
            break;
          }
          case 1: {
            std::vector<Bytes> contributions;
            for (int p = 0; p < comm.size(); ++p) {
              contributions.push_back(
                  tu::of_u64(static_cast<std::uint64_t>(t * 1000 + p)));
            }
            const auto r = comm.run_allgather(contributions, &engine);
            for (ProcId p = 0; p < comm.size(); ++p) {
              for (ProcId q = 0; q < comm.size(); ++q) {
                check(r.item_at(p, q) ==
                      contributions[static_cast<std::size_t>(q)]);
              }
            }
            break;
          }
          case 2: {
            std::vector<Bytes> values;
            std::uint64_t total = 0;
            for (int p = 0; p < comm.size(); ++p) {
              const auto v = static_cast<std::uint64_t>(t + p * p);
              values.push_back(tu::of_u64(v));
              total += v;
            }
            const auto r =
                comm.run_reduce(values, tu::add_u64(), 0, &engine);
            check(tu::to_u64(r.folded_at(0)) == total);
            break;
          }
          default: {
            const Count n = 24 + static_cast<Count>(i);
            const sum::SummationPlan plan = comm.reduce_operands(n);
            const auto layout = sum::operand_layout(plan);
            std::vector<std::vector<Bytes>> operands(plan.procs.size());
            std::uint64_t v = 0;
            for (std::size_t a = 0; a < layout.size(); ++a) {
              for (std::size_t b = 0; b < layout[a].total(); ++b) {
                operands[a].push_back(tu::of_u64(v++));
              }
            }
            const auto r =
                comm.run_reduce_operands(n, operands, tu::add_u64(), &engine);
            check(tu::to_u64(r.folded_at(plan.root)) ==
                  static_cast<std::uint64_t>(sum::execute_iota_sum(plan)));
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

/// The shared engine serializes concurrent callers rather than corrupting
/// state: same workload, one process-wide engine.
TEST(CommunicatorExec, SharedEngineHandlesConcurrentCallers) {
  const auto planner = std::make_shared<runtime::Planner>();
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &planner, &failures] {
      const Communicator comm(Params{8, 4, 1, 2}, planner);
      const Bytes payload = tu::of_str("shared-" + std::to_string(t));
      for (int i = 0; i < 4; ++i) {
        const auto r =
            comm.run_broadcast(std::span<const std::byte>(payload));
        for (ProcId p = 0; p < comm.size(); ++p) {
          if (!(r.item_at(p, 0) == payload)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace logpc::api
