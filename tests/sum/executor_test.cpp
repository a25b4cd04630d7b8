#include "sum/executor.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace logpc::sum {
namespace {

const Params kFig6{8, 5, 2, 4};

TEST(Executor, LayoutMatchesOperandCounts) {
  const auto plan = optimal_summation(kFig6, 28);
  const auto layout = operand_layout(plan);
  ASSERT_EQ(layout.size(), plan.procs.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    EXPECT_EQ(layout[i].total(),
              static_cast<std::size_t>(
                  plan.procs[i].local_operands(kFig6.o)));
    EXPECT_EQ(layout[i].chunk_sizes.size(),
              plan.procs[i].recv_times.size() + 1);
    total += layout[i].total();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(plan.total_operands));
}

TEST(Executor, InterReceptionChunksAreGapMinusOverheadMinusOne) {
  // Between consecutive receptions a processor performs g - o - 1 input
  // additions (the paper's "chain of g-o-1 input-summing nodes").
  const auto plan = optimal_summation(kFig6, 28);
  const auto layout = operand_layout(plan);
  for (std::size_t i = 0; i < layout.size(); ++i) {
    const auto& chunks = layout[i].chunk_sizes;
    for (std::size_t j = 1; j + 1 < chunks.size(); ++j) {
      EXPECT_EQ(chunks[j],
                static_cast<std::size_t>(kFig6.g - kFig6.o - 1));
    }
  }
}

TEST(Executor, IotaSumMatchesClosedForm) {
  for (const Params params : {kFig6, Params{5, 3, 0, 1}, Params{12, 2, 1, 4}}) {
    for (const Time t : {7, 15, 28}) {
      const auto plan = optimal_summation(params, t);
      const auto n = static_cast<long long>(plan.total_operands);
      EXPECT_EQ(execute_iota_sum(plan), n * (n - 1) / 2)
          << params.to_string() << " t=" << t;
    }
  }
}

TEST(Executor, CombinationOrderIsAPermutation) {
  const auto plan = optimal_summation(Params{9, 3, 1, 3}, 20);
  const auto order = combination_order(plan);
  EXPECT_EQ(order.size(), static_cast<std::size_t>(plan.total_operands));
  std::set<std::pair<ProcId, std::size_t>> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), order.size());
  const auto layout = operand_layout(plan);
  for (const auto& [proc, idx] : order) {
    const auto it = std::find_if(layout.begin(), layout.end(),
                                 [proc = proc](const ProcLayout& pl) {
                                   return pl.proc == proc;
                                 });
    ASSERT_NE(it, layout.end());
    EXPECT_LT(idx, it->total());
  }
}

TEST(Executor, NonCommutativeOperatorViaRenumbering) {
  // The paper's footnote: the commutative-optimal algorithm handles a
  // non-commutative '+' after renumbering operands.  Assign each operand
  // its combination-order rank as a label: the result must be the labels
  // in ascending order, proving the fold is a contiguous application.
  const auto plan = optimal_summation(Params{7, 2, 0, 2}, 14);
  const auto order = combination_order(plan);
  const auto layout = operand_layout(plan);
  std::vector<std::vector<std::string>> operands(layout.size());
  for (std::size_t i = 0; i < layout.size(); ++i) {
    operands[i].resize(layout[i].total());
  }
  // rank r lives at order[r] = (proc, local index).
  std::vector<std::size_t> index_of_proc(64, SIZE_MAX);
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    index_of_proc[static_cast<std::size_t>(plan.procs[i].proc)] = i;
  }
  std::string expected;
  for (std::size_t r = 0; r < order.size(); ++r) {
    const auto& [proc, idx] = order[r];
    const std::string label =
        std::string("[").append(std::to_string(r)).append("]");
    operands[index_of_proc[static_cast<std::size_t>(proc)]][idx] = label;
    expected += label;
  }
  const auto result = execute_summation<std::string>(
      plan, operands, [](const std::string& a, const std::string& b) {
        return a + b;
      });
  EXPECT_EQ(result, expected);
}

TEST(Executor, RejectsWrongOperandShapes) {
  const auto plan = optimal_summation(Params{4, 2, 0, 1}, 6);
  std::vector<std::vector<int>> wrong_count(plan.procs.size() + 1);
  EXPECT_THROW(execute_summation<int>(plan, wrong_count,
                                      [](const int& a, const int& b) {
                                        return a + b;
                                      }),
               std::invalid_argument);
  const auto layout = operand_layout(plan);
  std::vector<std::vector<int>> wrong_sizes(plan.procs.size());
  for (std::size_t i = 0; i < layout.size(); ++i) {
    wrong_sizes[i].resize(layout[i].total() + 1);
  }
  EXPECT_THROW(execute_summation<int>(plan, wrong_sizes,
                                      [](const int& a, const int& b) {
                                        return a + b;
                                      }),
               std::invalid_argument);
}

TEST(Executor, SingleProcessorPlan) {
  const auto plan = optimal_summation(Params{1, 2, 0, 1}, 5);
  EXPECT_EQ(execute_iota_sum(plan), 0 + 1 + 2 + 3 + 4 + 5);
  const auto order = combination_order(plan);
  EXPECT_EQ(order.size(), 6u);
}

}  // namespace
}  // namespace logpc::sum
