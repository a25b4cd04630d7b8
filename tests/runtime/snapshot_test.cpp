#include "runtime/snapshot.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "runtime/planner.hpp"
#include "runtime/warmup.hpp"

namespace logpc::runtime {
namespace {

const Params kMachine{16, 8, 1, 4};

/// Warms a planner with a representative mix of problems.
void warm(Planner& planner) {
  (void)planner.plan(PlanKey::broadcast(kMachine));
  (void)planner.plan(PlanKey::kitem(kMachine, 6));
  (void)planner.plan(PlanKey::kitem_buffered(kMachine, 4));
  (void)planner.plan(PlanKey::reduce(kMachine, 5));
  (void)planner.plan(PlanKey::summation(Params{12, 4, 1, 3}, 50));
  (void)planner.plan(PlanKey::alltoall(kMachine, 2));
}

TEST(Snapshot, RoundTripsEveryPlanExactly) {
  Planner planner;
  warm(planner);
  std::stringstream stream;
  const std::size_t written = save_snapshot(planner.cache(), stream);
  EXPECT_EQ(written, planner.cache().size());

  PlanCache loaded(64, 4);
  const std::size_t read = load_snapshot(loaded, stream);
  EXPECT_EQ(read, written);
  EXPECT_EQ(loaded.size(), written);

  for (const PlanPtr& original : planner.cache().entries()) {
    const PlanPtr restored = loaded.get(original->key);
    ASSERT_NE(restored, nullptr) << original->key.to_string();
    EXPECT_EQ(restored->schedule, original->schedule);
    EXPECT_EQ(restored->completion, original->completion);
    EXPECT_EQ(restored->method, original->method);
    EXPECT_EQ(restored->slack, original->slack);
    EXPECT_EQ(restored->max_buffer_depth, original->max_buffer_depth);
    EXPECT_EQ(restored->total_operands, original->total_operands);
  }
}

TEST(Snapshot, LoadedCacheServesHitsWithoutRebuilding) {
  Planner cold;
  warm(cold);
  std::stringstream stream;
  (void)save_snapshot(cold.cache(), stream);

  // A fresh planner that starts hot: load the snapshot, then plan.
  Planner hot;
  (void)load_snapshot(hot.cache(), stream);
  const PlanPtr plan = hot.plan(PlanKey::kitem(kMachine, 6));
  EXPECT_EQ(hot.builds(), 0u) << "snapshot hit should not rebuild";
  EXPECT_EQ(plan->schedule,
            cold.plan(PlanKey::kitem(kMachine, 6))->schedule);
}

TEST(Snapshot, FileRoundTrip) {
  Planner planner;
  warm(planner);
  const std::string path = testing::TempDir() + "logpc_plansnap_test.bin";
  const std::size_t written = save_snapshot(planner.cache(), path);
  PlanCache loaded(64, 2);
  EXPECT_EQ(load_snapshot(loaded, path), written);
  EXPECT_EQ(loaded.size(), written);
  EXPECT_THROW((void)load_snapshot(loaded, path + ".missing"),
               std::runtime_error);
}

TEST(Snapshot, RejectsCorruptInput) {
  PlanCache cache(16, 1);
  std::stringstream bad_header("not a snapshot at all............");
  EXPECT_THROW((void)load_snapshot(cache, bad_header),
               std::invalid_argument);
  // Only the current format loads: an older version's header is as bad as
  // any other.
  std::stringstream old_version(std::string("logpc-plansnap v3\n") +
                                std::string(8, '\0'));
  EXPECT_THROW((void)load_snapshot(cache, old_version),
               std::invalid_argument);

  Planner planner;
  warm(planner);
  std::stringstream stream;
  (void)save_snapshot(planner.cache(), stream);
  const std::string full = stream.str();
  // Truncate mid-entry: the loader must throw, not return garbage.
  std::stringstream truncated(full.substr(0, full.size() / 2));
  PlanCache partial(16, 1);
  EXPECT_THROW((void)load_snapshot(partial, truncated),
               std::invalid_argument);
}

TEST(Snapshot, EmptyCacheRoundTrips) {
  PlanCache empty(8, 1);
  std::stringstream stream;
  EXPECT_EQ(save_snapshot(empty, stream), 0u);
  PlanCache loaded(8, 1);
  EXPECT_EQ(load_snapshot(loaded, stream), 0u);
  EXPECT_EQ(loaded.size(), 0u);
}

}  // namespace
}  // namespace logpc::runtime
