#include "svc/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

/// Unit tests for the admission core: pure policy over opaque handles, so
/// every property here is exact and deterministic — no threads, no clocks
/// except the ones we pass in.

namespace logpc::svc {
namespace {

/// Admits `n` requests for `tenant` (handles don't matter to the policy).
void fill(Scheduler& s, TenantId tenant, int n, QoS qos = QoS::kBatch) {
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(s.offer(tenant, qos, /*handle=*/0, /*now_sec=*/0.0),
              Admit::kAdmitted);
  }
}

/// Drains every queued request, returning the dispatch order of tenants.
std::vector<TenantId> drain(Scheduler& s) {
  std::vector<TenantId> order;
  TenantId t = -1;
  std::uint64_t h = 0;
  while (s.pick(&t, &h)) order.push_back(t);
  return order;
}

TEST(SvcScheduler, EqualWeightsAlternate) {
  Scheduler s;
  const TenantId a = s.add_tenant({.name = "a"});
  const TenantId b = s.add_tenant({.name = "b"});
  fill(s, a, 10);
  fill(s, b, 10);
  const auto order = drain(s);
  ASSERT_EQ(order.size(), 20u);
  // Stride with equal weights is exact round-robin: any prefix is within
  // one dispatch of an even split.
  int ca = 0, cb = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    (order[i] == a ? ca : cb)++;
    EXPECT_LE(std::abs(ca - cb), 1) << "prefix " << i;
  }
}

TEST(SvcScheduler, WeightedShareMatchesWeights) {
  Scheduler s;
  const TenantId heavy = s.add_tenant({.name = "heavy", .weight = 3});
  const TenantId light = s.add_tenant({.name = "light", .weight = 1});
  fill(s, heavy, 60);
  fill(s, light, 60);
  const auto order = drain(s);
  // While both stay backlogged (first 80 dispatches), heavy gets 3/4.
  int h = 0;
  for (int i = 0; i < 80; ++i) h += order[static_cast<std::size_t>(i)] == heavy;
  EXPECT_NEAR(h, 60, 2);
  (void)light;
}

TEST(SvcScheduler, QoSClassesAreStrictPriority) {
  Scheduler s;
  const TenantId a = s.add_tenant({.name = "a", .queue_capacity = 16});
  ASSERT_EQ(s.offer(a, QoS::kBestEffort, 1, 0.0), Admit::kAdmitted);
  ASSERT_EQ(s.offer(a, QoS::kBatch, 2, 0.0), Admit::kAdmitted);
  ASSERT_EQ(s.offer(a, QoS::kInteractive, 3, 0.0), Admit::kAdmitted);
  ASSERT_EQ(s.offer(a, QoS::kBatch, 4, 0.0), Admit::kAdmitted);
  TenantId t = -1;
  std::uint64_t h = 0;
  std::vector<std::uint64_t> got;
  while (s.pick(&t, &h)) got.push_back(h);
  // Interactive first, then the batch pair in FIFO order, best-effort last.
  EXPECT_EQ(got, (std::vector<std::uint64_t>{3, 2, 4, 1}));
}

TEST(SvcScheduler, InteractiveFromAnyTenantBeatsBatchBacklog) {
  Scheduler s;
  const TenantId bulk = s.add_tenant({.name = "bulk", .queue_capacity = 128});
  const TenantId ui = s.add_tenant({.name = "ui"});
  fill(s, bulk, 50);
  ASSERT_EQ(s.offer(ui, QoS::kInteractive, 99, 0.0), Admit::kAdmitted);
  TenantId t = -1;
  std::uint64_t h = 0;
  ASSERT_TRUE(s.pick(&t, &h));
  EXPECT_EQ(t, ui);
  EXPECT_EQ(h, 99u);
}

TEST(SvcScheduler, FullQueueRejectsWithBackpressure) {
  Scheduler s;
  const TenantId a = s.add_tenant({.name = "a", .queue_capacity = 2});
  EXPECT_EQ(s.offer(a, QoS::kBatch, 1, 0.0), Admit::kAdmitted);
  EXPECT_EQ(s.offer(a, QoS::kInteractive, 2, 0.0), Admit::kAdmitted);
  // The bound spans QoS classes: nothing else fits regardless of class.
  EXPECT_EQ(s.offer(a, QoS::kInteractive, 3, 0.0), Admit::kQueueFull);
  EXPECT_EQ(s.queue_depth(a), 2u);
  TenantId t = -1;
  std::uint64_t h = 0;
  ASSERT_TRUE(s.pick(&t, &h));
  EXPECT_EQ(s.offer(a, QoS::kBatch, 3, 0.0), Admit::kAdmitted);
}

TEST(SvcScheduler, TokenBucketLimitsRate) {
  Scheduler s;
  const TenantId a =
      s.add_tenant({.name = "a", .rate_per_sec = 1.0, .burst = 2.0});
  // A fresh bucket holds the full burst; the third request inside the same
  // instant is over rate.
  EXPECT_EQ(s.offer(a, QoS::kBatch, 1, 10.0), Admit::kAdmitted);
  EXPECT_EQ(s.offer(a, QoS::kBatch, 2, 10.0), Admit::kAdmitted);
  EXPECT_EQ(s.offer(a, QoS::kBatch, 3, 10.0), Admit::kRateLimited);
  // Rejection doesn't queue: depth stays at the two admitted.
  EXPECT_EQ(s.queue_depth(a), 2u);
  // One second later one token has dripped back in.
  EXPECT_EQ(s.offer(a, QoS::kBatch, 4, 11.0), Admit::kAdmitted);
  EXPECT_EQ(s.offer(a, QoS::kBatch, 5, 11.0), Admit::kRateLimited);
}

TEST(SvcScheduler, BurstDefaultsToRate) {
  Scheduler s;
  const TenantId a = s.add_tenant({.name = "a", .rate_per_sec = 3.0});
  EXPECT_EQ(s.config(a).burst, 3.0);
}

TEST(SvcScheduler, RejectsNonFiniteOrNegativeRateLimits) {
  // A NaN burst would keep the bucket at NaN, which never compares below
  // one token: every submit would be admitted.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Scheduler s;
  EXPECT_THROW(s.add_tenant({.name = "a", .rate_per_sec = 1.0, .burst = nan}),
               std::invalid_argument);
  EXPECT_THROW(s.add_tenant({.name = "b", .rate_per_sec = nan}),
               std::invalid_argument);
  EXPECT_THROW(s.add_tenant({.name = "c", .rate_per_sec = -1.0}),
               std::invalid_argument);
  EXPECT_THROW(s.add_tenant({.name = "d", .rate_per_sec = 1.0, .burst = -2.0}),
               std::invalid_argument);
  EXPECT_THROW(s.add_tenant({.name = "e", .rate_per_sec = inf}),
               std::invalid_argument);
  EXPECT_THROW(s.add_tenant({.name = "f", .rate_per_sec = 1.0, .burst = inf}),
               std::invalid_argument);
  // Nothing was registered; the next valid tenant gets id 0.
  EXPECT_EQ(s.tenant_count(), 0u);
  EXPECT_EQ(s.add_tenant({.name = "ok", .rate_per_sec = 1.0, .burst = 1.0}),
            0);
}

TEST(SvcScheduler, IdleTenantCannotHoardCredit) {
  Scheduler s;
  const TenantId busy = s.add_tenant({.name = "busy", .queue_capacity = 256});
  const TenantId idle = s.add_tenant({.name = "idle", .queue_capacity = 256});
  // `busy` runs alone for a long while, advancing the virtual clock.
  fill(s, busy, 100);
  ASSERT_EQ(drain(s).size(), 100u);
  // `idle` wakes with a backlog.  Without the vtime rejoin it would hold
  // pass = 0 and monopolize the next ~100 dispatches; with it, service is
  // immediately fair.
  fill(s, busy, 20);
  fill(s, idle, 20);
  const auto order = drain(s);
  int first_idle = 0;
  for (int i = 0; i < 10; ++i) {
    first_idle += order[static_cast<std::size_t>(i)] == idle;
  }
  EXPECT_LE(first_idle, 6);
  EXPECT_GE(first_idle, 4);
}

TEST(SvcScheduler, LateTenantJoinsAtCurrentVirtualTime) {
  Scheduler s;
  const TenantId old_t = s.add_tenant({.name = "old", .queue_capacity = 256});
  fill(s, old_t, 50);
  ASSERT_EQ(drain(s).size(), 50u);
  const TenantId young = s.add_tenant({.name = "young", .queue_capacity = 256});
  fill(s, old_t, 20);
  fill(s, young, 20);
  const auto order = drain(s);
  int young_first10 = 0;
  for (int i = 0; i < 10; ++i) {
    young_first10 += order[static_cast<std::size_t>(i)] == young;
  }
  EXPECT_LE(young_first10, 6);
}

TEST(SvcScheduler, UnknownTenantThrows) {
  Scheduler s;
  EXPECT_THROW((void)s.offer(0, QoS::kBatch, 1, 0.0), std::invalid_argument);
  EXPECT_THROW((void)s.queue_depth(7), std::invalid_argument);
  TenantId t = -1;
  std::uint64_t h = 0;
  EXPECT_FALSE(s.pick(&t, &h));
}

TEST(SvcScheduler, TakeRemovesTheNamedRequestAndChargesStride) {
  Scheduler s;
  const TenantId a = s.add_tenant({.name = "a", .queue_capacity = 16});
  ASSERT_EQ(s.offer(a, QoS::kBatch, 10, 0.0), Admit::kAdmitted);
  ASSERT_EQ(s.offer(a, QoS::kBatch, 11, 0.0), Admit::kAdmitted);
  ASSERT_EQ(s.offer(a, QoS::kBatch, 12, 0.0), Admit::kAdmitted);
  // Claim the middle request out of band, as the fusion batcher does.
  EXPECT_TRUE(s.take(a, QoS::kBatch, 11));
  EXPECT_EQ(s.queue_depth(a), 2u);
  EXPECT_EQ(s.queued(), 2u);
  // The remaining requests still dispatch in FIFO order, minus the taken one.
  TenantId t = -1;
  std::uint64_t h = 0;
  ASSERT_TRUE(s.pick(&t, &h));
  EXPECT_EQ(h, 10u);
  ASSERT_TRUE(s.pick(&t, &h));
  EXPECT_EQ(h, 12u);
  EXPECT_FALSE(s.pick(&t, &h));
}

TEST(SvcScheduler, TakeChargesFairShareLikePick) {
  // Requests claimed via take() (fusion siblings) must cost their tenant
  // the same stride charge a pick would: after consuming 40 dispatches'
  // worth of service through one pick + 39 takes, the tenant owes the
  // untouched competitor the whole next round — it cannot treat the fused
  // batch as a single dispatch and immediately reclaim the engine.
  Scheduler s;
  const TenantId fused = s.add_tenant({.name = "fused", .queue_capacity = 64});
  const TenantId other = s.add_tenant({.name = "other", .queue_capacity = 64});
  fill(s, fused, 40);
  TenantId t = -1;
  std::uint64_t h = 0;
  ASSERT_TRUE(s.pick(&t, &h));
  for (int i = 0; i < 39; ++i) {
    ASSERT_TRUE(s.take(fused, QoS::kBatch, 0));
  }
  EXPECT_EQ(s.queued(), 0u);
  fill(s, fused, 20);
  fill(s, other, 20);
  const auto order = drain(s);
  int fused_first20 = 0;
  for (int i = 0; i < 20; ++i) {
    fused_first20 += order[static_cast<std::size_t>(i)] == fused;
  }
  // `other` has 40 strides of credit over `fused`, so its whole backlog
  // drains first.  Were take() free, `fused` would alternate here.
  EXPECT_EQ(fused_first20, 0);
}

TEST(SvcScheduler, TakeReturnsFalseForUnknownHandleOrClass) {
  Scheduler s;
  const TenantId a = s.add_tenant({.name = "a", .queue_capacity = 16});
  ASSERT_EQ(s.offer(a, QoS::kBatch, 5, 0.0), Admit::kAdmitted);
  EXPECT_FALSE(s.take(a, QoS::kBatch, 99));        // no such handle
  EXPECT_FALSE(s.take(a, QoS::kInteractive, 5));   // wrong class
  EXPECT_EQ(s.queue_depth(a), 1u);
  EXPECT_THROW((void)s.take(7, QoS::kBatch, 5), std::invalid_argument);
}

TEST(SvcScheduler, WeightAndCapacityAreClampedToOne) {
  Scheduler s;
  const TenantId a = s.add_tenant({.name = "a", .weight = 0,
                                   .queue_capacity = 0});
  EXPECT_EQ(s.config(a).weight, 1u);
  EXPECT_EQ(s.config(a).queue_capacity, 1u);
  EXPECT_EQ(s.offer(a, QoS::kBatch, 1, 0.0), Admit::kAdmitted);
  EXPECT_EQ(s.offer(a, QoS::kBatch, 2, 0.0), Admit::kQueueFull);
}

}  // namespace
}  // namespace logpc::svc
