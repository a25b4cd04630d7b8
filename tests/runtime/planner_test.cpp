#include "runtime/planner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "api/communicator.hpp"
#include "bcast/kitem.hpp"
#include "bcast/single_item.hpp"
#include "runtime/implicit_plan.hpp"
#include "runtime/warmup.hpp"
#include "sched/metrics.hpp"
#include "validate/checker.hpp"

namespace logpc::runtime {
namespace {

const Params kMachine{16, 8, 1, 4};

TEST(PlanKey, NormalizesPostalProblemsToTheProjection) {
  // Stating the k-item request on the physical machine or directly on its
  // postal projection (L' = L + 2o = 10) must give the same key.
  const PlanKey physical = PlanKey::kitem(kMachine, 6);
  const PlanKey postal = PlanKey::kitem(Params::postal(16, 10), 6);
  EXPECT_EQ(physical, postal);
  EXPECT_EQ(physical.params, Params::postal(16, 10));
  EXPECT_EQ(physical.hash(), postal.hash());
}

TEST(PlanKey, NormalizesIrrelevantArguments) {
  // k is irrelevant for single-item broadcast; root for k-item broadcast.
  EXPECT_EQ(PlanKey::make(Problem::kBroadcast, kMachine, 5, 3),
            PlanKey::make(Problem::kBroadcast, kMachine, 1, 3));
  EXPECT_EQ(PlanKey::make(Problem::kKItemBroadcast, kMachine, 4, 7),
            PlanKey::make(Problem::kKItemBroadcast, kMachine, 4, 0));
  // But meaningful arguments distinguish keys.
  EXPECT_NE(PlanKey::broadcast(kMachine, 0), PlanKey::broadcast(kMachine, 1));
  EXPECT_NE(PlanKey::kitem(kMachine, 4), PlanKey::kitem(kMachine, 5));
  EXPECT_NE(PlanKey::broadcast(kMachine), PlanKey::reduce(kMachine));
}

TEST(PlanKey, RejectsBadArguments) {
  EXPECT_THROW((void)PlanKey::broadcast(Params{0, 1, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)PlanKey::broadcast(kMachine, 16), std::invalid_argument);
  EXPECT_THROW((void)PlanKey::kitem(kMachine, 0), std::invalid_argument);
  // The k-item and all-to-all builders take an int k: a wider k is
  // refused, not narrowed (2^32 + 2 would otherwise plan as k = 2).
  const std::int64_t wide = (std::int64_t{1} << 32) + 2;
  EXPECT_THROW((void)PlanKey::alltoall(Params::postal(8, 3), wide),
               std::invalid_argument);
  EXPECT_THROW((void)PlanKey::kitem(kMachine, wide), std::invalid_argument);
  EXPECT_NO_THROW((void)PlanKey::summation(kMachine, wide));
}

TEST(PlanKey, BoundsTheMachineFieldsSoTimesCannotOverflow) {
  // At the bound the key is accepted, its postal projection is its own
  // canonical form, and the last label of the widest tree the bound admits
  // (2^31 - 1 ranks, parent at the stated 32 (L + 2o + g) ceiling) still
  // fits Time.
  const Params edge{1024, kMaxMachineField - 2, 1, kMaxMachineField};
  const PlanKey bcast = PlanKey::broadcast(edge);
  EXPECT_EQ(bcast.params.transfer_time(), kMaxMachineField);
  const PlanKey kitem = PlanKey::kitem(edge, 4);
  EXPECT_EQ(PlanKey::make(kitem.problem, kitem.params, kitem.k), kitem);
  const Time ceiling = 32 * (edge.transfer_time() + edge.g);
  EXPECT_GT(edge.child_label(ceiling, std::numeric_limits<ProcId>::max() - 1),
            ceiling);
  // One past it, and fields whose L + 2o would overflow Time, are refused.
  const Time huge = Time{1} << 62;
  for (const Params& bad :
       {Params{8, kMaxMachineField + 1, 0, 1}, Params{8, 1, huge, 1},
        Params{8, huge, 0, 1}, Params{8, 2, 0, kMaxMachineField + 1},
        Params{8, kMaxMachineField, 1, 1}}) {
    EXPECT_THROW((void)PlanKey::broadcast(bad), std::invalid_argument)
        << bad;
  }
}

TEST(PlanKey, MembershipMasksRequireSmallMachines) {
  // The mask is one 64-bit word: make() must reject P > 64 with a clear
  // error rather than silently dropping ranks >= 64 from the live set.
  const Params big{65, 4, 1, 2};
  EXPECT_THROW((void)PlanKey::make(Problem::kBroadcast, big, 1, 0, 0x3ull),
               std::invalid_argument);
  EXPECT_NO_THROW((void)PlanKey::make(Problem::kBroadcast, big));  // mask == 0
  // A hand-assembled key that bypassed make() faults fast in the accessors
  // instead of shifting past the word.
  PlanKey hand = PlanKey::broadcast(big);
  hand.mask = 0x3ull;
  EXPECT_THROW((void)hand.live_count(), std::logic_error);
  EXPECT_THROW((void)hand.live_ranks(), std::logic_error);
  // Exactly-64 machines stay maskable.
  const Params p64{64, 4, 1, 2};
  const std::uint64_t survivors = ~0ull ^ (1ull << 63);
  const PlanKey ok = PlanKey::make(Problem::kBroadcast, p64, 1, 0, survivors);
  EXPECT_EQ(ok.live_count(), 63);
}

TEST(PlanKey, ToStringGoldenText) {
  // One key per problem, masked and unmasked; operator<< writes the same.
  const auto both = [](const PlanKey& key) {
    std::ostringstream os;
    os << key;
    EXPECT_EQ(os.str(), key.to_string());
    return key.to_string();
  };
  EXPECT_EQ(both(PlanKey::broadcast(Params{16, 6, 2, 4}, 3)),
            "broadcast(LogP(P=16, L=6, o=2, g=4), k=1, root=3)");
  // k-item keys are stored as their postal projection, L' = L + 2o.
  EXPECT_EQ(both(PlanKey::kitem(Params{8, 6, 2, 4}, 16)),
            "kitem(LogP(P=8, L=10, o=0, g=1), k=16, root=0)");
  EXPECT_EQ(both(PlanKey::summation(Params{1 << 20, 12, 3, 5},
                                    (std::int64_t{1} << 40) + 3)),
            "summation(LogP(P=1048576, L=12, o=3, g=5), k=1099511627779, "
            "root=0)");
  EXPECT_EQ(both(PlanKey::make(Problem::kReduce, Params{64, 4, 1, 2}, 1, 5,
                               0xdeadbeefull)),
            "reduce(LogP(P=64, L=4, o=1, g=2), k=1, root=5, mask=0xdeadbeef)");
  EXPECT_EQ(both(PlanKey::make(Problem::kAllToAll, Params{64, 4, 1, 2}, 7, 0,
                               ~0ull ^ (1ull << 63))),
            "alltoall(LogP(P=64, L=4, o=1, g=2), k=7, root=0, "
            "mask=0x7fffffffffffffff)");
  // A hand-assembled key (fields make() would refuse) formats its extremes.
  PlanKey hand = PlanKey::broadcast(kMachine);
  hand.problem = static_cast<Problem>(99);
  hand.params = Params{-3, std::numeric_limits<Time>::max(),
                       std::numeric_limits<Time>::min(), 0};
  hand.k = std::numeric_limits<std::int64_t>::min();
  hand.root = std::numeric_limits<ProcId>::min();
  hand.mask = ~0ull;
  EXPECT_EQ(both(hand),
            "unknown(LogP(P=-3, L=9223372036854775807, "
            "o=-9223372036854775808, g=0), k=-9223372036854775808, "
            "root=-2147483648, mask=0xffffffffffffffff)");
}

TEST(Planner, PlansMatchTheDirectBuilders) {
  Planner planner;
  const PlanPtr b = planner.plan(PlanKey::broadcast(kMachine));
  EXPECT_EQ(plan_schedule(*b), bcast::optimal_single_item(kMachine, 0));
  EXPECT_EQ(b->completion, bcast::B_of_P(kMachine, 16));

  const PlanPtr k = planner.plan(PlanKey::kitem(kMachine, 6));
  const auto direct = bcast::kitem_broadcast(16, 10, 6);
  EXPECT_EQ(k->schedule, direct.schedule);
  EXPECT_EQ(k->completion, direct.completion);
  EXPECT_EQ(k->slack, direct.slack);

  EXPECT_TRUE(validate::is_valid(plan_schedule(*b)));
  EXPECT_TRUE(validate::is_valid(k->schedule));
}

TEST(Planner, SecondRequestIsACacheHitReturningTheSamePlan) {
  Planner planner;
  const PlanPtr first = planner.plan(PlanKey::reduce(kMachine, 3));
  const PlanPtr second = planner.plan(PlanKey::reduce(kMachine, 3));
  EXPECT_EQ(first.get(), second.get());  // same immutable object
  EXPECT_EQ(planner.builds(), 1u);
  EXPECT_GE(planner.cache().stats().hits, 1u);
}

TEST(Planner, BuilderExceptionsPropagateAndNothingIsCached) {
  Planner planner;
  // P = 1 passes key validation but the k-item builder requires P >= 2.
  const PlanKey bad = PlanKey::kitem(Params::postal(1, 3), 4);
  EXPECT_THROW((void)planner.plan(bad), std::invalid_argument);
  EXPECT_FALSE(planner.cache().contains(bad));
  // A retry reaches the builder again (and fails again).
  EXPECT_THROW((void)planner.plan(bad), std::invalid_argument);
  EXPECT_EQ(planner.builds(), 2u);
}

// The ISSUE's concurrency acceptance test: N threads x M keys, every thread
// requests every key, and exactly one build happens per key.  Run under
// -DLOGPC_TSAN=ON to also prove data-race freedom.
TEST(Planner, ConcurrentHammerBuildsEachKeyExactlyOnce) {
  Planner planner;
  std::vector<PlanKey> keys;
  for (int k = 1; k <= 4; ++k) {
    keys.push_back(PlanKey::kitem(Params::postal(10, 3), k));
    keys.push_back(PlanKey::alltoall(Params{10, 3, 1, 2}, k));
    keys.push_back(PlanKey::summation(Params{12, 4, 1, 3},
                                      static_cast<std::int64_t>(20 * k)));
  }
  constexpr int kThreads = 8;
  std::vector<std::vector<PlanPtr>> results(
      kThreads, std::vector<PlanPtr>(keys.size()));
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = 0; i < keys.size(); ++i) {
        // Rotate the starting key per thread to maximize collisions on
        // different keys at the same instant.
        const std::size_t j = (i + static_cast<std::size_t>(t) * 3) %
                              keys.size();
        results[static_cast<std::size_t>(t)][j] = planner.plan(keys[j]);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();

  // Exactly one build per distinct key, however the threads raced.
  EXPECT_EQ(planner.builds(), keys.size());
  // Every thread got the same immutable plan object per key, and it is the
  // plan for that key.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(results[0][i], nullptr);
    EXPECT_EQ(results[0][i]->key, keys[i]);
    EXPECT_FALSE(plan_schedule(*results[0][i]).sends().empty());
    for (int t = 1; t < kThreads; ++t) {
      ASSERT_EQ(results[static_cast<std::size_t>(t)][i].get(),
                results[0][i].get());
    }
  }
}

TEST(Planner, TelemetryObservesBuildLatencyPerProblem) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Histogram& bcast_hist = reg.histogram(
      "logpc_planner_build_latency_ns", obs::default_latency_buckets_ns(), "",
      "problem=\"broadcast\"");
  // The registry is process-global and other tests plan too: assert deltas.
  const std::uint64_t observed_before = bcast_hist.count();

  Planner planner;
  const PlanKey key = PlanKey::broadcast(Params{9, 4, 1, 2});
  (void)planner.plan(key);  // miss -> one build, one latency observation
  (void)planner.plan(key);  // hit -> no new observation
  EXPECT_EQ(bcast_hist.count(), observed_before + 1);
  EXPECT_GT(bcast_hist.sum(), 0.0);
}

TEST(Planner, RequestGaugeCountsEachLogicalLookupExactlyOnce) {
  Planner planner;
  const PlanKey key = PlanKey::broadcast(Params{9, 4, 1, 2});
  (void)planner.plan(key);  // miss (the in-lock re-probe must not recount)
  (void)planner.plan(key);  // hit
  (void)planner.plan(key);  // hit
  const CacheStats s = planner.cache().stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_DOUBLE_EQ(s.hit_ratio(), 2.0 / 3.0);
}

TEST(Planner, TelemetryDisabledSkipsObservationsButStillPlans) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Histogram& hist = reg.histogram(
      "logpc_planner_build_latency_ns", obs::default_latency_buckets_ns(), "",
      "problem=\"broadcast\"");
  const std::uint64_t before = hist.count();
  obs::set_enabled(false);
  Planner planner;
  const PlanPtr plan = planner.plan(PlanKey::broadcast(Params{5, 3, 1, 2}));
  obs::set_enabled(true);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(hist.count(), before);  // ScopedTimer was inactive
}

TEST(Planner, CacheGaugesRegisteredPerInstanceAndUnregisteredOnDestruction) {
  auto& reg = obs::MetricsRegistry::global();
  std::string labels;
  {
    Planner planner;
    labels = "planner=\"" + std::to_string(planner.telemetry_id()) + "\"";
    (void)planner.plan(PlanKey::broadcast(Params{7, 3, 1, 2}));
    bool found_hit_ratio = false;
    bool found_shard = false;
    for (const obs::MetricSnapshot& m : reg.snapshot()) {
      if (m.labels.rfind(labels, 0) != 0) continue;
      if (m.name == "logpc_plan_cache_hit_ratio") found_hit_ratio = true;
      if (m.name == "logpc_plan_cache_shard_entries") found_shard = true;
      if (m.name == "logpc_plan_cache_entries") {
        EXPECT_EQ(m.value, 1.0);
      }
    }
    EXPECT_TRUE(found_hit_ratio);
    EXPECT_TRUE(found_shard);
  }
  // Destroyed planner: its gauges must be gone (no dangling callbacks).
  for (const obs::MetricSnapshot& m : reg.snapshot()) {
    EXPECT_NE(m.labels.rfind(labels, 0), 0u) << m.name;
  }
}

TEST(Warmup, GridExpandsToDeduplicatedFeasibleKeys) {
  WarmupGrid grid;
  grid.problems = {Problem::kBroadcast, Problem::kKItemBroadcast};
  grid.machines = {kMachine, Params::postal(16, 10)};
  grid.ks = {2, 4};
  const std::vector<PlanKey> keys = grid.keys();
  // broadcast ignores k and both machines differ for it (2 keys); kitem
  // normalizes both machines to the same postal projection (2 keys, one
  // per k).
  EXPECT_EQ(keys.size(), 4u);
}

TEST(Warmup, FillsTheCacheWithOneBuildPerKey) {
  Planner planner;
  WarmupGrid grid;
  grid.problems = {Problem::kBroadcast, Problem::kReduce,
                   Problem::kAllToAll};
  grid.machines = {Params{8, 6, 2, 4}, Params{12, 4, 1, 2}};
  grid.ks = {1, 2};
  const std::vector<PlanKey> keys = grid.keys();
  const WarmupReport report = warmup(planner, grid, 4);
  EXPECT_EQ(report.requested, keys.size());
  EXPECT_EQ(report.planned, keys.size());
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.built, keys.size());
  for (const PlanKey& key : keys) {
    EXPECT_TRUE(planner.cache().contains(key)) << key.to_string();
  }
  // Warming again is all hits.
  const WarmupReport again = warmup(planner, grid, 4);
  EXPECT_EQ(again.built, 0u);
}

TEST(Communicator, SharesOnePlanAcrossInstancesAndThreads) {
  auto planner = std::make_shared<Planner>();
  const api::Communicator a(kMachine, planner);
  const api::Communicator b(kMachine, planner);
  const Schedule s1 = a.bcast();
  const Schedule s2 = b.bcast();
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(planner->builds(), 1u);
  // The zero-copy accessor returns the cached entry itself.
  const PlanPtr p1 = a.plan(Problem::kBroadcast);
  const PlanPtr p2 = b.plan(Problem::kBroadcast);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(plan_schedule(*p1), s1);
}

}  // namespace
}  // namespace logpc::runtime
