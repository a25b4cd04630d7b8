#include "api/communicator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "runtime/planner.hpp"
#include "sched/metrics.hpp"
#include "validate/checker.hpp"

namespace logpc::api {
namespace {

const Params kMachine{16, 8, 1, 4};

TEST(Communicator, BcastMatchesTheory) {
  const Communicator comm(kMachine);
  EXPECT_EQ(comm.size(), 16);
  const Schedule s = comm.bcast();
  EXPECT_TRUE(validate::is_valid(s)) << validate::check(s).summary();
  EXPECT_EQ(completion_time(s), comm.bcast_time());
  EXPECT_EQ(comm.bcast_time(), bcast::B_of_P(kMachine, 16));
}

TEST(Communicator, BcastFromNonzeroRoot) {
  const Communicator comm(kMachine);
  const Schedule s = comm.bcast(7);
  EXPECT_TRUE(validate::is_valid(s));
  EXPECT_EQ(s.initials()[0].proc, 7);
}

TEST(Communicator, KItemUsesPostalProjection) {
  const Communicator comm(kMachine);
  const auto r = comm.bcast_k(6);
  // Effective hop latency is L + 2o = 10.
  EXPECT_EQ(r.schedule.params(), Params::postal(16, 10));
  EXPECT_TRUE(validate::is_valid(r.schedule))
      << validate::check(r.schedule).summary();
  EXPECT_LE(r.completion, r.bounds.single_sending_upper);
}

TEST(Communicator, BufferedKItemMeetsBound) {
  const Communicator comm(kMachine);
  const auto r = comm.bcast_k_buffered(5);
  EXPECT_EQ(r.completion, r.bounds.single_sending_lower);
  // A postal construction: it runs on L' = L + 2o = 10.
  EXPECT_EQ(r.schedule.params(), Params::postal(16, 10));
}

TEST(Communicator, ScatterAndGatherAreDualsWithSameCost) {
  const Communicator comm(kMachine);
  const Schedule sc = comm.scatter(3);
  const Schedule ga = comm.gather(3);
  EXPECT_EQ(sc.makespan(), comm.scatter_time());
  EXPECT_EQ(ga.makespan(), comm.gather_time());
  EXPECT_EQ(comm.scatter_time(), (16 - 2) * 4 + 8 + 2);
  // Scatter: root sends P-1 messages; gather: root receives P-1.
  EXPECT_EQ(send_counts(sc)[3], 15);
  EXPECT_EQ(receive_counts(ga, 0).size(), 16u);
  const auto check_sc =
      validate::check(sc, {.require_complete = false});
  EXPECT_TRUE(check_sc.ok()) << check_sc.summary();
  const auto check_ga =
      validate::check(ga, {.require_complete = false});
  EXPECT_TRUE(check_ga.ok()) << check_ga.summary();
}

TEST(Communicator, ScatterDeliversEachItemToItsDestination) {
  const Communicator comm(Params::postal(6, 3));
  const Schedule sc = comm.scatter(0);
  const auto avail = availability_matrix(sc);
  for (ProcId d = 1; d < 6; ++d) {
    EXPECT_NE(avail[static_cast<std::size_t>(d)][static_cast<std::size_t>(d)],
              kNever)
        << d;
  }
}

TEST(Communicator, ReduceMirrorsBcast) {
  const Communicator comm(kMachine);
  const auto plan = comm.reduce(2);
  EXPECT_EQ(plan.completion, comm.reduce_time());
  EXPECT_EQ(plan.root, 2);
}

TEST(Communicator, ReduceOperandsInvertsTime) {
  const Communicator comm(Params{16, 8, 1, 4});
  const Count n = 300;
  const auto plan = comm.reduce_operands(n);
  EXPECT_GE(plan.total_operands, n);
  EXPECT_EQ(plan.t, comm.reduce_operands_time(n));
}

TEST(Communicator, ReduceOperandsPlansOnce) {
  auto planner = std::make_shared<runtime::Planner>();
  const Communicator comm(Params{16, 8, 1, 4}, planner);
  const Count n = 300;
  const Time t = comm.reduce_operands_time(n);
  EXPECT_EQ(planner->builds(), 1u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(comm.reduce_operands(n).t, t);
    EXPECT_EQ(comm.reduce_operands_time(n), t);
  }
  EXPECT_EQ(planner->builds(), 1u);
  EXPECT_EQ(t, sum::min_time_for_operands(comm.params(), n));
}

TEST(Communicator, AlltoallMatchesBound) {
  const Communicator comm(kMachine);
  for (const int k : {1, 3}) {
    const Schedule s = comm.alltoall(k);
    EXPECT_EQ(completion_time(s), comm.alltoall_time(k));
    EXPECT_TRUE(
        validate::is_valid(s, {.allow_duplex_overhead = true}));
  }
  EXPECT_TRUE(bcast::personalized_complete(comm.alltoall_personalized()));
}

TEST(Communicator, AllreduceHalvesReduceBroadcast) {
  const Communicator comm(kMachine);
  const auto cs = comm.allreduce();
  EXPECT_EQ(cs.T, comm.allreduce_time());
  EXPECT_GE(cs.params.P, 16);  // f_T ring slots cover P
  EXPECT_EQ(cs.params.L, 10);  // postal: L' = L + 2o
  EXPECT_EQ(cs.sends, cs.timing_view().sends());  // in time order
  // Execute with identity padding.
  std::vector<long long> vals(static_cast<std::size_t>(cs.params.P), 0);
  for (int i = 0; i < 16; ++i) vals[static_cast<std::size_t>(i)] = i + 1;
  const auto out = bcast::execute_combining<long long>(
      cs, vals, [](const long long& a, const long long& b) { return a + b; });
  for (const auto v : out) EXPECT_EQ(v, 16 * 17 / 2);
}

TEST(Communicator, SingleProcessorDegenerates) {
  const Communicator comm(Params{1, 3, 1, 2});
  EXPECT_EQ(comm.bcast_time(), 0);
  EXPECT_EQ(comm.scatter_time(), 0);
  EXPECT_EQ(comm.alltoall_time(), 0);
}

TEST(Communicator, CompilesEveryPlannerProblem) {
  // The planner keys only collectives with an execution path: a kind that
  // cannot compile has no business in runtime::Problem.
  const Communicator comm(Params{8, 4, 1, 2});
  for (int p = 0; p < runtime::kNumProblems; ++p) {
    const auto problem = static_cast<runtime::Problem>(p);
    const std::int64_t k = problem == runtime::Problem::kSummation ? 40 : 2;
    const exec::Program program = comm.compile(problem, k);
    EXPECT_GT(program.num_messages, 0u) << runtime::problem_name(problem);
  }
}

TEST(Communicator, RejectsBadRoots) {
  const Communicator comm(Params::postal(4, 2));
  EXPECT_THROW(comm.scatter(4), std::invalid_argument);
  EXPECT_THROW(comm.gather(-1), std::invalid_argument);
}

}  // namespace
}  // namespace logpc::api
