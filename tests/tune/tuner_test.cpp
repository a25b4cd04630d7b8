#include "tune/tuner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/communicator.hpp"
#include "tune/decision_table.hpp"

namespace logpc::tune {
namespace {

using runtime::PlanKey;
using runtime::Planner;
using runtime::Problem;

const Params kMachine{8, 4, 1, 2};

Decision tree_decision(Problem p, double win = 100, double runner = 200) {
  Decision d;
  d.problem = p;
  d.win_ns = win;
  d.runner_up_ns = runner;
  return d;
}

Decision segmented_decision(std::int32_t k) {
  Decision d;
  d.problem = Problem::kKItemBroadcast;
  d.segments = k;
  d.win_ns = 100;
  return d;
}

Decision hier_decision(std::int32_t clusters) {
  Decision d;
  d.problem = Problem::kHierarchicalBroadcast;
  d.clusters = clusters;
  d.cross_L = 16;
  d.cross_o = 3;
  d.cross_g = 10;
  d.win_ns = 100;
  return d;
}

TEST(SizeClass, CeilLog2WithZeroAndOneInClassZero) {
  EXPECT_EQ(size_class_of(0), 0);
  EXPECT_EQ(size_class_of(1), 0);
  EXPECT_EQ(size_class_of(2), 1);
  EXPECT_EQ(size_class_of(3), 2);
  EXPECT_EQ(size_class_of(4), 2);
  EXPECT_EQ(size_class_of(4096), 12);
  EXPECT_EQ(size_class_of(4097), 13);
  EXPECT_EQ(size_class_bytes(12), 4096u);
  EXPECT_THROW((void)size_class_bytes(-1), std::invalid_argument);
  EXPECT_THROW((void)size_class_bytes(64), std::invalid_argument);
}

TEST(DecisionTable, FindSnapsToTheNearestTunedClass) {
  DecisionTable table;
  table.set({Collective::kBroadcast, 8, 8},
            tree_decision(Problem::kBroadcast));
  table.set({Collective::kBroadcast, 8, 16},
            segmented_decision(4));

  // Exact classes.
  EXPECT_EQ(table.find(Collective::kBroadcast, 8, 256)->problem,
            Problem::kBroadcast);
  EXPECT_EQ(table.find(Collective::kBroadcast, 8, 65536)->problem,
            Problem::kKItemBroadcast);
  // Below the grid snaps up to the smallest tuned class...
  EXPECT_EQ(table.find(Collective::kBroadcast, 8, 1)->problem,
            Problem::kBroadcast);
  // ...above snaps down to the largest.
  EXPECT_EQ(table.find(Collective::kBroadcast, 8, 1 << 24)->problem,
            Problem::kKItemBroadcast);
  // Class 11 is 3 away from 8 and 5 from 16: snaps to 8.
  EXPECT_EQ(table.find(Collective::kBroadcast, 8, 2048)->problem,
            Problem::kBroadcast);
  // Class 12 ties (4 from each side): ties snap down.
  EXPECT_EQ(table.find(Collective::kBroadcast, 8, 4096)->problem,
            Problem::kBroadcast);
  // Class 13 is closer to 16.
  EXPECT_EQ(table.find(Collective::kBroadcast, 8, 8192)->problem,
            Problem::kKItemBroadcast);

  // Untuned machine size: no decision at all.
  EXPECT_EQ(table.find(Collective::kBroadcast, 16, 256), nullptr);
  EXPECT_EQ(table.find_class({Collective::kBroadcast, 8, 9}), nullptr);
  EXPECT_NE(table.find_class({Collective::kBroadcast, 8, 8}), nullptr);
}

TEST(DecisionTable, SetRejectsIllFormedEntries) {
  DecisionTable table;
  const DecisionKey key{Collective::kBroadcast, 8, 8};
  EXPECT_THROW(table.set({Collective::kBroadcast, 0, 8},
                         tree_decision(Problem::kBroadcast)),
               std::invalid_argument);
  EXPECT_THROW(table.set({Collective::kBroadcast, 8, 64},
                         tree_decision(Problem::kBroadcast)),
               std::invalid_argument);

  // The pipeline splits into >= 2 segments; every other family sends the
  // payload whole.
  EXPECT_THROW(table.set(key, segmented_decision(0)), std::invalid_argument);
  EXPECT_THROW(table.set(key, segmented_decision(1)), std::invalid_argument);
  Decision segmented_tree = tree_decision(Problem::kChainBroadcast);
  segmented_tree.segments = 4;
  EXPECT_THROW(table.set(key, segmented_tree), std::invalid_argument);

  Decision negative = tree_decision(Problem::kBroadcast, -1);
  EXPECT_THROW(table.set(key, negative), std::invalid_argument);

  // Hierarchical winners need a sane cluster count...
  EXPECT_THROW(table.set(key, hier_decision(1)), std::invalid_argument);
  EXPECT_THROW(table.set(key, hier_decision(9)), std::invalid_argument);
  // ...and only hierarchical winners carry topology.
  Decision stray = tree_decision(Problem::kBinomialBroadcast);
  stray.clusters = 2;
  EXPECT_THROW(table.set(key, stray), std::invalid_argument);

  EXPECT_TRUE(table.empty());
  EXPECT_NO_THROW(table.set(key, hier_decision(2)));
  EXPECT_EQ(table.size(), 1u);
}

TEST(DecisionTable, SnapshotRoundTripsExactly) {
  DecisionTable table;
  table.set({Collective::kBroadcast, 4, 8},
            tree_decision(Problem::kBinomialBroadcast, 123, 456));
  table.set({Collective::kBroadcast, 8, 12}, segmented_decision(4));
  table.set({Collective::kBroadcast, 8, 18}, hier_decision(2));

  std::stringstream stream;
  table.save(stream);
  const DecisionTable loaded = DecisionTable::load(stream);
  EXPECT_EQ(loaded, table);
}

TEST(DecisionTable, LoadRejectsCorruptSnapshots) {
  std::stringstream bad_header("not a decision table, definitely");
  EXPECT_THROW((void)DecisionTable::load(bad_header), std::invalid_argument);

  DecisionTable table;
  table.set({Collective::kBroadcast, 8, 8},
            tree_decision(Problem::kBroadcast));
  std::stringstream stream;
  table.save(stream);
  std::string bytes = stream.str();

  // Truncation.
  std::stringstream truncated(bytes.substr(0, bytes.size() - 4));
  EXPECT_THROW((void)DecisionTable::load(truncated), std::invalid_argument);

  // A corrupt record must be rejected by re-validation, not admitted.
  std::string corrupt = bytes;
  corrupt[corrupt.size() - 60] = '\x7f';  // clobbers a field of the record
  std::stringstream corrupted(corrupt);
  EXPECT_THROW((void)DecisionTable::load(corrupted), std::invalid_argument);
}

// The v1 table layout (decision_table.cpp): an 18-byte header, an i64
// entry count, then eleven i64 fields per entry.
constexpr std::size_t kTableHeaderBytes = 18;
constexpr int kFieldP = 1;
constexpr int kFieldProblem = 3;
constexpr int kFieldSegments = 4;
constexpr int kFieldCrossG = 8;

/// `bytes` with the little-endian i64 at `offset` replaced by `v`.
std::string with_i64(std::string bytes, std::size_t offset, std::int64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[offset + i] =
        static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff);
  }
  return bytes;
}

/// The saved one-entry table {(broadcast, P = 8, 256 B): `d`} with field
/// `field` of its record set to `v`.
std::string saved_with_field(const Decision& d, int field, std::int64_t v) {
  DecisionTable table;
  table.set({Collective::kBroadcast, 8, 8}, d);
  std::stringstream stream;
  table.save(stream);
  return with_i64(stream.str(),
                  kTableHeaderBytes + 8 + static_cast<std::size_t>(field) * 8,
                  v);
}

void expect_load_rejects(const std::string& bytes) {
  std::stringstream stream(bytes);
  EXPECT_THROW((void)DecisionTable::load(stream), std::invalid_argument);
}

TEST(DecisionTable, LoadRejectsWinnersTheTunedPathCannotServe) {
  // Scatter and gather are not broadcasts: served as one, 7 of 8 ranks
  // would never see the payload.
  for (const Problem p : {Problem::kScatter, Problem::kGather,
                          Problem::kReduce, Problem::kAllToAll}) {
    expect_load_rejects(saved_with_field(tree_decision(Problem::kBroadcast),
                                         kFieldProblem,
                                         static_cast<std::int64_t>(p)));
  }
  DecisionTable table;
  EXPECT_THROW(table.set({Collective::kBroadcast, 8, 8},
                         tree_decision(Problem::kScatter)),
               std::invalid_argument);
}

TEST(DecisionTable, LoadRejectsAHierarchicalWinnerWithoutACrossMachine) {
  // cross g = 0 would throw "invalid LogP parameters" on every request.
  expect_load_rejects(saved_with_field(hier_decision(2), kFieldCrossG, 0));
  Decision no_cross_g = hier_decision(2);
  no_cross_g.cross_g = 0;
  DecisionTable table;
  EXPECT_THROW(table.set({Collective::kBroadcast, 8, 8}, no_cross_g),
               std::invalid_argument);
}

TEST(DecisionTable, LoadRejectsFieldsOutsideTheirTypeBeforeNarrowing) {
  // 2^32 + 8 would otherwise narrow to P = 8.
  const std::int64_t wide = (std::int64_t{1} << 32) + 8;
  expect_load_rejects(
      saved_with_field(tree_decision(Problem::kBroadcast), kFieldP, wide));
  expect_load_rejects(
      saved_with_field(segmented_decision(4), kFieldSegments, wide));
  std::stringstream intact(
      saved_with_field(tree_decision(Problem::kBroadcast), kFieldP, 8));
  EXPECT_EQ(DecisionTable::load(intact).size(), 1u);
}

TEST(DecisionTable, MutationCorpusThrowsOrReloadsUnchanged) {
  DecisionTable table;
  table.set({Collective::kBroadcast, 4, 8},
            tree_decision(Problem::kBinomialBroadcast, 123, 456));
  table.set({Collective::kBroadcast, 8, 12}, segmented_decision(4));
  table.set({Collective::kBroadcast, 8, 18}, hier_decision(2));
  std::stringstream stream;
  table.save(stream);
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
    corpus.push_back(with_i64(good, kTableHeaderBytes, count));
  }

  int loads = 0;
  for (const std::string& input : corpus) {
    std::stringstream is(input);
    DecisionTable loaded;
    try {
      loaded = DecisionTable::load(is);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++loads;
    // Whatever loads is a table the wire form carries exactly.
    std::stringstream resaved;
    loaded.save(resaved);
    EXPECT_EQ(DecisionTable::load(resaved), loaded);
  }
  // Flips in the timings (and in unused high bits of small fields that
  // still fit) load; the corpus exercises the re-save path.
  EXPECT_GT(loads, 0);
}

TEST(AutoTune, RejectsIllFormedGrids) {
  TunerOptions empty;
  empty.Ps.clear();
  EXPECT_THROW((void)auto_tune(empty), std::invalid_argument);

  TunerOptions tiny;
  tiny.Ps = {1};
  EXPECT_THROW((void)auto_tune(tiny), std::invalid_argument);

  TunerOptions no_trials;
  no_trials.trials = 0;
  EXPECT_THROW((void)auto_tune(no_trials), std::invalid_argument);
}

TEST(AutoTune, TinyGridProducesADecisionPerSegment) {
  TunerOptions opts;
  opts.Ps = {4};
  opts.sizes = {64, 4096};
  opts.trials = 3;
  opts.warmup = 1;
  opts.clusters = 2;
  opts.planner = std::make_shared<Planner>();

  const TuneReport report = auto_tune(opts);
  ASSERT_EQ(report.segments.size(), 2u);
  EXPECT_EQ(report.table.size(), 2u);
  for (const SegmentResult& seg : report.segments) {
    EXPECT_EQ(seg.P, 4);
    EXPECT_EQ(seg.size_class, size_class_of(seg.bytes));
    // optimal + 3 trees + hierarchical + segmented.
    ASSERT_EQ(seg.timings.size(), 6u);
    for (std::size_t i = 1; i < seg.timings.size(); ++i) {
      EXPECT_LE(seg.timings[i - 1].median_ns, seg.timings[i].median_ns);
    }
    // The table holds exactly the winner the segment reports.
    const Decision* d = report.table.find_class(
        {Collective::kBroadcast, seg.P, seg.size_class});
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(*d, seg.winner);
    EXPECT_EQ(d->problem, seg.timings.front().problem);
    EXPECT_GT(d->win_ns, 0);
    EXPECT_GE(d->runner_up_ns, d->win_ns);
  }
}

TEST(PlannerTuning, TunedKeyRoutesEachWinnerFamily) {
  Planner planner;
  // No table installed: the paper's optimal tree.
  EXPECT_EQ(planner.tuned_key(Collective::kBroadcast, kMachine, 256, 3),
            PlanKey::broadcast(kMachine, 3));

  auto table = std::make_shared<DecisionTable>();
  table->set({Collective::kBroadcast, 8, 8},
             tree_decision(Problem::kChainBroadcast));
  table->set({Collective::kBroadcast, 8, 12}, segmented_decision(4));
  table->set({Collective::kBroadcast, 8, 18}, hier_decision(2));
  planner.set_decision_table(table);
  EXPECT_EQ(planner.decision_table(), table);

  // Tree winner, root preserved.
  EXPECT_EQ(planner.tuned_key(Collective::kBroadcast, kMachine, 200, 3),
            PlanKey::make(Problem::kChainBroadcast, kMachine, 1, 3));
  // Segmented winner: the kitem spelling (root normalizes to 0 there).
  EXPECT_EQ(planner.tuned_key(Collective::kBroadcast, kMachine, 4096, 3),
            PlanKey::segmented_broadcast(kMachine, 4));
  // Hierarchical winner rebuilt from the recorded topology.
  EXPECT_EQ(planner.tuned_key(Collective::kBroadcast, kMachine, 200000, 3),
            PlanKey::make(Problem::kHierarchicalBroadcast, kMachine, 1, 3, 0,
                          2, 16, 3, 10));
  // Untuned machine size falls back to the optimal tree.
  const Params other{16, 4, 1, 2};
  EXPECT_EQ(planner.tuned_key(Collective::kBroadcast, other, 4096, 0),
            PlanKey::broadcast(other));

  // plan_tuned resolves the same key through the cache.
  const runtime::PlanPtr plan =
      planner.plan_tuned(Collective::kBroadcast, kMachine, 200, 3);
  EXPECT_EQ(plan->key, PlanKey::make(Problem::kChainBroadcast, kMachine, 1, 3));

  // Clearing the table restores the default path.
  planner.set_decision_table(nullptr);
  EXPECT_EQ(planner.decision_table(), nullptr);
  EXPECT_EQ(planner.tuned_key(Collective::kBroadcast, kMachine, 4096, 0),
            PlanKey::broadcast(kMachine));
}

TEST(PlannerTuning, WarmMemoInvalidatesWhenTheTableChanges) {
  // plan_tuned memoizes warm (table, machine, size-class) bindings; a
  // replaced or cleared table must stop those entries matching, not keep
  // serving the old winner.
  Planner planner;
  auto chain = std::make_shared<DecisionTable>();
  chain->set({Collective::kBroadcast, 8, 8},
             tree_decision(Problem::kChainBroadcast));
  planner.set_decision_table(chain);
  for (int i = 0; i < 3; ++i) {  // repeat -> the memoized fast path
    EXPECT_EQ(planner.plan_tuned(Collective::kBroadcast, kMachine, 200)->key,
              PlanKey::make(Problem::kChainBroadcast, kMachine));
  }

  auto binary = std::make_shared<DecisionTable>();
  binary->set({Collective::kBroadcast, 8, 8},
              tree_decision(Problem::kBinaryBroadcast));
  planner.set_decision_table(binary);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(planner.plan_tuned(Collective::kBroadcast, kMachine, 200)->key,
              PlanKey::make(Problem::kBinaryBroadcast, kMachine));
  }

  planner.set_decision_table(nullptr);
  EXPECT_EQ(planner.plan_tuned(Collective::kBroadcast, kMachine, 200)->key,
            PlanKey::broadcast(kMachine));
}

TEST(PlannerTuning, ConcurrentPlanTunedIsRaceFree) {
  // Readers race the memo's CAS publish and table swaps: every result
  // must be a plan some installed table (or the cleared state) selects —
  // the TSan target for the lock-free tuned path.
  Planner planner;
  auto chain = std::make_shared<DecisionTable>();
  chain->set({Collective::kBroadcast, 8, 8},
             tree_decision(Problem::kChainBroadcast));
  auto binary = std::make_shared<DecisionTable>();
  binary->set({Collective::kBroadcast, 8, 8},
              tree_decision(Problem::kBinaryBroadcast));

  const std::vector<PlanKey> valid{
      PlanKey::make(Problem::kChainBroadcast, kMachine),
      PlanKey::make(Problem::kBinaryBroadcast, kMachine),
      PlanKey::broadcast(kMachine)};
  std::atomic<bool> bad{false};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        const runtime::PlanPtr p =
            planner.plan_tuned(Collective::kBroadcast, kMachine,
                               static_cast<std::size_t>(100 + i % 3));
        if (p == nullptr ||
            std::find(valid.begin(), valid.end(), p->key) == valid.end()) {
          bad.store(true);
        }
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    planner.set_decision_table(chain);
    planner.set_decision_table(binary);
    planner.set_decision_table(nullptr);
  }
  for (std::thread& th : readers) th.join();
  EXPECT_FALSE(bad.load());
}

class TunedBroadcastRun : public ::testing::Test {
 protected:
  std::vector<std::byte> payload(std::size_t n) const {
    std::vector<std::byte> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::byte>((i * 29 + 5) & 0xff);
    }
    return out;
  }

  void expect_delivers(const api::Communicator& comm,
                       const std::vector<std::byte>& bytes, ProcId root) {
    const exec::ExecReport report = comm.run_broadcast_tuned(bytes, root);
    const exec::Bytes want(bytes.begin(), bytes.end());
    for (ProcId p = 0; p < comm.size(); ++p) {
      EXPECT_EQ(report.item_at(p, 0), want) << "rank " << p;
    }
  }
};

TEST_F(TunedBroadcastRun, DeliversByteExactUnderEveryWinnerFamily) {
  for (const Decision& d :
       {tree_decision(Problem::kBinomialBroadcast), segmented_decision(3),
        hier_decision(2)}) {
    auto planner = std::make_shared<Planner>();
    auto table = std::make_shared<DecisionTable>();
    // One decision covering every size via snapping.
    table->set({Collective::kBroadcast, 8, 10}, d);
    planner->set_decision_table(table);
    const api::Communicator comm(kMachine, planner);
    expect_delivers(comm, payload(777), 0);
    expect_delivers(comm, payload(777), 5);  // non-zero root relabels
  }
}

TEST_F(TunedBroadcastRun, SegmentedWinnerHandlesEmptyPayloads) {
  auto planner = std::make_shared<Planner>();
  auto table = std::make_shared<DecisionTable>();
  table->set({Collective::kBroadcast, 8, 10}, segmented_decision(4));
  planner->set_decision_table(table);
  const api::Communicator comm(kMachine, planner);
  expect_delivers(comm, {}, 0);
}

TEST_F(TunedBroadcastRun, UntunedCommunicatorMatchesRunBroadcast) {
  const api::Communicator comm(kMachine, std::make_shared<Planner>());
  expect_delivers(comm, payload(96), 2);
}

}  // namespace
}  // namespace logpc::tune
