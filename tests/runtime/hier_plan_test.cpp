#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "bcast/hierarchical.hpp"
#include "runtime/plan_key.hpp"
#include "runtime/planner.hpp"
#include "runtime/snapshot.hpp"

namespace logpc::runtime {
namespace {

const Params kIntra{12, 2, 1, 2};
const Params kCross{0, 16, 3, 10};

HierParams machine() {
  return HierParams::uniform(12, 3, kIntra, kCross);
}

TEST(HierPlanKey, HierarchicalFactoryCarriesTheTopology) {
  const PlanKey key = PlanKey::hierarchical(machine(), 5);
  EXPECT_EQ(key.problem, Problem::kHierarchicalBroadcast);
  EXPECT_EQ(key.params, kIntra);
  EXPECT_EQ(key.root, 5);
  EXPECT_EQ(key.clusters, 3);
  EXPECT_EQ(key.cross_L, 16);
  EXPECT_EQ(key.cross_o, 3);
  EXPECT_EQ(key.cross_g, 10);
  EXPECT_EQ(key.hier_params(), machine());
}

TEST(HierPlanKey, MakeIsIdempotent) {
  const PlanKey key = PlanKey::hierarchical(machine(), 5);
  EXPECT_EQ(PlanKey::make(key.problem, key.params, key.k, key.root, key.mask,
                          key.clusters, key.cross_L, key.cross_o, key.cross_g),
            key);
}

TEST(HierPlanKey, OneClusterDegeneratesToFlatBroadcast) {
  const PlanKey key = PlanKey::make(Problem::kHierarchicalBroadcast, kIntra,
                                    1, 2, 0, /*clusters=*/1, 16, 3, 10);
  EXPECT_EQ(key, PlanKey::broadcast(kIntra, 2));
  EXPECT_EQ(key.clusters, 0);
}

TEST(HierPlanKey, AllSingletonsDegeneratesToCrossBroadcast) {
  const PlanKey key = PlanKey::make(Problem::kHierarchicalBroadcast, kIntra,
                                    1, 2, 0, /*clusters=*/12, 16, 3, 10);
  Params cross = kCross;
  cross.P = 12;
  EXPECT_EQ(key, PlanKey::broadcast(cross, 2));
}

TEST(HierPlanKey, RejectsIllFormedTopologies) {
  const auto hier = Problem::kHierarchicalBroadcast;
  // clusters outside [1, P].
  EXPECT_THROW((void)PlanKey::make(hier, kIntra, 1, 0, 0, 13, 16, 3, 10),
               std::invalid_argument);
  EXPECT_THROW((void)PlanKey::make(hier, kIntra, 1, 0, 0, -1, 16, 3, 10),
               std::invalid_argument);
  // Invalid cross class (L must be >= 1).
  EXPECT_THROW((void)PlanKey::make(hier, kIntra, 1, 0, 0, 3, 0, 3, 10),
               std::invalid_argument);
  // Membership masks are topology-blind.
  EXPECT_THROW((void)PlanKey::make(hier, kIntra, 1, 0, 0xfff, 3, 16, 3, 10),
               std::invalid_argument);
  // Topology fields on a flat problem.
  EXPECT_THROW((void)PlanKey::make(Problem::kBroadcast, kIntra, 1, 0, 0, 3,
                                   16, 3, 10),
               std::invalid_argument);
  // Non-uniform partitions have no canonical key spelling.
  HierParams interleaved = machine();
  interleaved.cluster_of = {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2};
  EXPECT_THROW((void)PlanKey::hierarchical(interleaved, 0),
               std::invalid_argument);
}

TEST(HierPlanKey, HierParamsThrowsOnFlatKeys) {
  EXPECT_THROW((void)PlanKey::broadcast(kIntra).hier_params(),
               std::logic_error);
}

TEST(HierPlanKey, TopologyDistinguishesKeys) {
  const PlanKey a = PlanKey::hierarchical(machine(), 0);
  PlanKey b = a;
  b.clusters = 4;
  PlanKey c = a;
  c.cross_g = 11;
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_NE(a, PlanKey::broadcast(kIntra));
  // The printed form shows the topology.
  EXPECT_NE(a.to_string().find("clusters=3"), std::string::npos);
}

TEST(HierPlanner, BuildsTheTwoLevelSchedule) {
  Planner planner;
  const PlanKey key = PlanKey::hierarchical(machine(), 4);
  const PlanPtr plan = planner.plan(key);
  const auto expect = bcast::hierarchical_broadcast(machine(), 4);
  EXPECT_EQ(plan->schedule, expect.schedule);
  EXPECT_EQ(plan->completion, expect.completion);
  EXPECT_NE(plan->method.find("hierarchical"), std::string::npos);
  // Cached: the second request is the same shared entry.
  EXPECT_EQ(planner.plan(key), plan);
  EXPECT_EQ(planner.builds(), 1u);
}

TEST(HierPlanner, SnapshotRoundTripsHierarchicalPlans) {
  Planner planner;
  const PlanKey key = PlanKey::hierarchical(machine(), 4);
  (void)planner.plan(key);
  (void)planner.plan(PlanKey::broadcast(kIntra, 1));  // a flat plan alongside

  std::stringstream stream;
  const std::size_t written = save_snapshot(planner.cache(), stream);
  EXPECT_EQ(written, 2u);

  PlanCache loaded(64, 4);
  EXPECT_EQ(load_snapshot(loaded, stream), written);
  const PlanPtr restored = loaded.get(key);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->key, key);
  const PlanPtr original = planner.plan(key);
  EXPECT_EQ(restored->schedule, original->schedule);
  EXPECT_EQ(restored->completion, original->completion);
  EXPECT_EQ(restored->method, original->method);
}

}  // namespace
}  // namespace logpc::runtime
