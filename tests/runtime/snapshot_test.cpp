#include "runtime/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bcast/single_item.hpp"
#include "bcast/tree.hpp"
#include "runtime/implicit_plan.hpp"
#include "runtime/planner.hpp"
#include "runtime/warmup.hpp"

namespace logpc::runtime {
namespace {

const Params kMachine{16, 8, 1, 4};

// The v7 layout (snapshot.hpp): header, i64 count, eight i64 key fields
// per entry, i64 FNV-1a checksum over everything after the header.
constexpr std::size_t kHeaderBytes = 18;
constexpr std::size_t kEntryBytes = 8 * 8;
constexpr int kFieldProblem = 0;
constexpr int kFieldP = 1;
constexpr int kFieldO = 3;
constexpr int kFieldK = 5;
constexpr int kFieldRoot = 6;

/// `bytes` with the little-endian i64 at `offset` replaced by `v`.
std::string with_i64(std::string bytes, std::size_t offset, std::int64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[offset + i] =
        static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff);
  }
  return bytes;
}

/// A saved snapshot with key field `field` of its first entry set to `v`
/// and the trailing checksum recomputed, so the edit passes the checksum.
std::string resealed(const std::string& snap, int field, std::int64_t v) {
  std::string out = with_i64(
      snap, kHeaderBytes + 8 + static_cast<std::size_t>(field) * 8, v);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = kHeaderBytes; i + 8 < out.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(out[i])) * 1099511628211ull;
  }
  return with_i64(out, out.size() - 8, static_cast<std::int64_t>(h));
}

/// Warms a planner with a representative mix of problems.
void warm(Planner& planner) {
  (void)planner.plan(PlanKey::broadcast(kMachine));
  (void)planner.plan(PlanKey::kitem(kMachine, 6));
  (void)planner.plan(PlanKey::kitem(kMachine, 4));
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
    EXPECT_EQ(plan_schedule(*restored), plan_schedule(*original));
    EXPECT_EQ(restored->materialized, original->materialized);
    EXPECT_EQ(restored->materialized, restored->implicit == nullptr);
    EXPECT_EQ(restored->completion, original->completion);
    EXPECT_EQ(restored->method, original->method);
    EXPECT_EQ(restored->slack, original->slack);
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
  EXPECT_EQ(plan_schedule(*plan),
            plan_schedule(*cold.plan(PlanKey::kitem(kMachine, 6))));
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
  for (const char* old_header : {"logpc-plansnap v3\n",
                                  "logpc-plansnap v4\n",
                                  "logpc-plansnap v5\n",
                                  "logpc-plansnap v6\n"}) {
    std::stringstream old_version(std::string(old_header) +
                                  std::string(8, '\0'));
    EXPECT_THROW((void)load_snapshot(cache, old_version),
                 std::invalid_argument)
        << old_header;
  }

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
  // Ids past the last problem are no longer problems, even behind a valid
  // checksum: 5, 16 (the last schedule-only kind's v6 id) and 17 (the
  // hierarchical broadcast's v5 id).
  for (const int id : {kNumProblems, 16, 17}) {
    std::stringstream retired(resealed(full, kFieldProblem, id));
    try {
      (void)load_snapshot(partial, retired);
      ADD_FAILURE() << "the retired problem id " << id << " loaded";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown problem id"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(partial.size(), 0u);
}

TEST(Snapshot, LoadRebuildsImplicitFamiliesFromTheKey) {
  // A materialized broadcast entry whose stored schedule disagrees with its
  // key (still well-formed: the last send is dropped), and whose scalars
  // lie too — what an older writer plus a bit of corruption could leave.
  const PlanKey key = PlanKey::broadcast(kMachine);
  const Schedule direct = bcast::optimal_single_item(kMachine, 0);
  Plan stored;
  stored.key = key;
  stored.schedule = Schedule(kMachine, direct.num_items());
  for (const InitialPlacement& init : direct.initials()) {
    stored.schedule.add_initial(init.item, init.proc, init.time);
  }
  for (std::size_t i = 0; i + 1 < direct.sends().size(); ++i) {
    stored.schedule.add_send(direct.sends()[i]);
  }
  stored.completion = 1;
  stored.method = "tampered";
  ASSERT_NE(stored.schedule, direct);
  PlanCache cache(8, 1);
  cache.put(key, std::make_shared<const Plan>(stored));
  std::stringstream stream;
  ASSERT_EQ(save_snapshot(cache, stream), 1u);

  PlanCache loaded(8, 1);
  ASSERT_EQ(load_snapshot(loaded, stream), 1u);
  const PlanPtr plan = loaded.get(key);
  ASSERT_NE(plan, nullptr);
  // The loaded plan is the one the planner would build: implicit-only,
  // with the key's own schedule, completion and label.
  EXPECT_FALSE(plan->materialized);
  ASSERT_NE(plan->implicit, nullptr);
  EXPECT_EQ(plan_schedule(*plan), direct);
  EXPECT_EQ(plan->completion, bcast::B_of_P(kMachine, kMachine.P));
  EXPECT_EQ(plan->method, Planner::build_uncached(key).method);
}

TEST(Snapshot, TamperedMaterializedEntryLoadsAsTheKeysOwnPlan) {
  // Materialized families had their schedules stored: an all-to-all entry
  // with one send dropped, and a k-item entry whose scalars lie.  The
  // snapshot keeps only their keys, so each loads as the key's own plan.
  const Params machine{8, 4, 1, 2};
  const PlanKey alltoall = PlanKey::alltoall(machine);
  const PlanKey kitem = PlanKey::kitem(machine, 3);
  Plan dropped = Planner::build_uncached(alltoall);
  ASSERT_TRUE(dropped.materialized);
  Schedule fewer(dropped.schedule.params(), dropped.schedule.num_items());
  for (const InitialPlacement& init : dropped.schedule.initials()) {
    fewer.add_initial(init.item, init.proc, init.time);
  }
  for (std::size_t i = 0; i + 1 < dropped.schedule.sends().size(); ++i) {
    fewer.add_send(dropped.schedule.sends()[i]);
  }
  dropped.schedule = fewer;
  Plan lying = Planner::build_uncached(kitem);
  ASSERT_TRUE(lying.materialized);
  lying.completion += 1000;
  lying.method = "tampered";

  PlanCache cache(8, 1);
  cache.put(alltoall, std::make_shared<const Plan>(dropped));
  cache.put(kitem, std::make_shared<const Plan>(lying));
  std::stringstream stream;
  ASSERT_EQ(save_snapshot(cache, stream), 2u);

  PlanCache loaded(8, 1);
  ASSERT_EQ(load_snapshot(loaded, stream), 2u);
  for (const PlanKey& key : {alltoall, kitem}) {
    const PlanPtr plan = loaded.get(key);
    ASSERT_NE(plan, nullptr) << key.to_string();
    const Plan own = Planner::build_uncached(key);
    EXPECT_EQ(plan->schedule, own.schedule) << key.to_string();
    EXPECT_EQ(plan->completion, own.completion) << key.to_string();
    EXPECT_EQ(plan->method, own.method) << key.to_string();
  }
}

TEST(Snapshot, StoresOnlyKeysAndAChecksum) {
  Planner planner;
  warm(planner);
  std::stringstream stream;
  const std::size_t n = save_snapshot(planner.cache(), stream);
  // Header, entry count, eight i64 key fields per entry, checksum.
  EXPECT_EQ(stream.str().size(), kHeaderBytes + 8 + n * kEntryBytes + 8);
}

TEST(Snapshot, RejectsResealedOutOfRangeAndNonCanonicalKeys) {
  Planner planner;
  (void)planner.plan(PlanKey::broadcast(kMachine));
  std::stringstream stream;
  ASSERT_EQ(save_snapshot(planner.cache(), stream), 1u);
  const std::string good = stream.str();
  Planner alltoall_planner;
  (void)alltoall_planner.plan(PlanKey::alltoall(Params::postal(8, 3), 2));
  std::stringstream alltoall_stream;
  ASSERT_EQ(save_snapshot(alltoall_planner.cache(), alltoall_stream), 1u);
  const std::string alltoall = alltoall_stream.str();
  // Each edit re-seals the checksum, so it reaches the key checks: P and
  // root must fit their types before narrowing (2^32 + 8 would otherwise
  // read as 8), o must be small enough that L + 2o cannot overflow, an
  // all-to-all k must fit the builder's int (2^32 + 2 would otherwise plan
  // as k = 2), and a key must be its own canonical form.
  const std::int64_t wide = (std::int64_t{1} << 32) + 8;
  const std::int64_t wide_k = (std::int64_t{1} << 32) + 2;
  for (const auto& [snap, field, value] :
       {std::tuple{&good, kFieldP, wide}, std::tuple{&good, kFieldRoot, wide},
        std::tuple{&good, kFieldO, std::int64_t{1} << 62},
        std::tuple{&alltoall, kFieldK, wide_k},
        std::tuple{&good, kFieldK, std::int64_t{5}},
        std::tuple{&good, kFieldRoot, std::int64_t{16}}}) {
    std::stringstream edited(resealed(*snap, field, value));
    PlanCache cache(8, 1);
    try {
      (void)load_snapshot(cache, edited);
      ADD_FAILURE() << "field " << field << " = " << value << " loaded";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).find("checksum"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(cache.size(), 0u);
  }
  std::stringstream unchanged(resealed(good, kFieldP, kMachine.P));
  PlanCache cache(8, 1);
  EXPECT_EQ(load_snapshot(cache, unchanged), 1u);
}

TEST(Snapshot, MutationCorpusIsRejectedBeforeAnyBuild) {
  Planner planner;
  warm(planner);
  std::stringstream stream;
  ASSERT_GT(save_snapshot(planner.cache(), stream), 0u);
  const std::string good = stream.str();

  std::vector<std::string> corpus;
  for (std::size_t len = 0; len < good.size(); ++len) {
    corpus.push_back(good.substr(0, len));
  }
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string flipped = good;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    corpus.push_back(std::move(flipped));
  }
  for (const std::int64_t count : {std::int64_t{1} << 62, std::int64_t{-1}}) {
    corpus.push_back(with_i64(good, kHeaderBytes, count));
  }
  // The v7 payload under the previous format's header.
  std::string v6 = good;
  v6[kHeaderBytes - 2] = '6';
  corpus.push_back(std::move(v6));

  for (const std::string& input : corpus) {
    std::stringstream is(input);
    PlanCache cache(64, 1);
    try {
      (void)load_snapshot(cache, is);
      ADD_FAILURE() << "a mutated snapshot of " << input.size()
                    << " bytes loaded";
    } catch (const std::invalid_argument& e) {
      // Rejected by the loader's own header, range or checksum checks,
      // never by a builder.
      EXPECT_EQ(std::string(e.what()).rfind("plan snapshot: ", 0), 0u)
          << e.what();
    }
    EXPECT_EQ(cache.size(), 0u);
  }
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
