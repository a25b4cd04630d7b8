#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "svc_test_util.hpp"

/// End-to-end tests of the collective-service daemon: real engine pools,
/// real futures.  Policy-order tests build their backlog on a paused
/// service with a single pool, so the dispatch sequence is exactly
/// the scheduler's decision sequence and every assertion is
/// deterministic.  Tests that need an engine lent hold a run at a Gate.

namespace logpc::svc {
namespace {

Params machine() { return Params{4, 4, 1, 2}; }

exec::Bytes of_str(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return exec::Bytes(p, p + s.size());
}

std::string to_str(const exec::Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

exec::Bytes of_u64(std::uint64_t v) {
  exec::Bytes b(sizeof v);
  std::memcpy(b.data(), &v, sizeof v);
  return b;
}

std::uint64_t to_u64(const exec::Bytes& b) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data(), std::min(b.size(), sizeof v));
  return v;
}

Request bcast_req(const std::string& payload, QoS qos = QoS::kBatch) {
  Request r;
  r.op = OpKind::kBroadcast;
  r.qos = qos;
  r.payload = of_str(payload);
  return r;
}

Request reduce_req(int P) {
  Request r;
  r.op = OpKind::kReduce;
  for (int p = 0; p < P; ++p) r.values.push_back(of_u64(p + 1));
  r.combine = exec::Combiner([](exec::Bytes& acc,
                                std::span<const std::byte> rhs) {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, acc.data(), sizeof a);
    std::memcpy(&b, rhs.data(), std::min(rhs.size(), sizeof b));
    a += b;
    std::memcpy(acc.data(), &a, sizeof a);
  });
  return r;
}

using testutil::Gate;
using testutil::ready_now;

/// reduce_req with a generic combiner that waits at `gate` before every
/// fold; the run completes only after gate.release().
Request gated_reduce_req(int P, Gate& gate) {
  return testutil::gated(reduce_req(P), gate);
}

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoi(v) : fallback;
}

TEST(SvcService, RejectsDegenerateOptionsAtConstruction) {
  const auto expect_rejected = [](CollectiveService::Options opts) {
    EXPECT_THROW(CollectiveService(machine(), opts), std::invalid_argument);
  };
  CollectiveService::Options opts;
  opts.pools = 0;
  expect_rejected(opts);
  opts.pools = 65;
  expect_rejected(opts);

  opts = {};
  opts.pools = 1;
  opts.segment_threshold = 0;  // segmentation off is a valid policy
  EXPECT_NO_THROW(CollectiveService(machine(), opts));

  opts = {};
  opts.introspect_port = 70000;
  expect_rejected(opts);
}

TEST(SvcService, BroadcastRoundTripOnWarmPool) {
  CollectiveService::Options opts;
  opts.pools = 1;
  CollectiveService svc(machine(), opts);
  const TenantId t = svc.register_tenant({.name = "svc-bcast"});

  for (int round = 0; round < 3; ++round) {
    SubmitResult sub = svc.submit(t, bcast_req("payload-" +
                                               std::to_string(round)));
    ASSERT_TRUE(sub.accepted());
    Response r = sub.response.get();
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.pool, 0);
    for (ProcId p = 0; p < machine().P; ++p) {
      EXPECT_EQ(to_str(r.report.item_at(p, 0)),
                "payload-" + std::to_string(round));
    }
    // The engine steps every rank on the thread that runs the request (here
    // the submitter, as the service is idle), so no run spawns a thread.
    EXPECT_TRUE(r.report.warm_pool) << "round " << round;
    // From the second same-shape run on, the run context is recycled too.
    if (round > 0) {
      EXPECT_TRUE(r.report.warm_buffers) << "round " << round;
    }
    EXPECT_GT(r.total_ns, 0u);
    EXPECT_GE(r.total_ns, r.queue_wait_ns);
  }
  const auto c = svc.tenant_counters(t);
  EXPECT_EQ(c.admitted, 3u);
  EXPECT_EQ(c.completed, 3u);
  EXPECT_EQ(c.queue_depth, 0u);
}

TEST(SvcService, ZeroByteBroadcastReturnsAnEmptyItemEverywhere) {
  CollectiveService svc(machine(), {});
  const TenantId t = svc.register_tenant({.name = "svc-empty"});
  SubmitResult sub = svc.submit(t, bcast_req(""));
  ASSERT_TRUE(sub.accepted());
  const Response r = sub.response.get();
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  ASSERT_EQ(r.report.items.size(), static_cast<std::size_t>(machine().P));
  for (ProcId p = 0; p < machine().P; ++p) {
    ASSERT_EQ(r.report.items[static_cast<std::size_t>(p)].size(), 1u);
    EXPECT_TRUE(r.report.item_at(p, 0).empty());
  }
}

TEST(SvcService, ReduceFoldsToRoot) {
  CollectiveService svc(machine(), {});
  const TenantId t = svc.register_tenant({.name = "svc-reduce"});
  SubmitResult sub = svc.submit(t, reduce_req(machine().P));
  ASSERT_TRUE(sub.accepted());
  Response r = sub.response.get();
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(to_u64(r.report.folded_at(0)), 1u + 2 + 3 + 4);
}

TEST(SvcService, AllgatherDeliversEveryContributionEverywhere) {
  CollectiveService svc(machine(), {});
  const TenantId t = svc.register_tenant({.name = "svc-gather"});
  Request req;
  req.op = OpKind::kAllgather;
  for (int p = 0; p < machine().P; ++p) {
    req.values.push_back(of_str("from-" + std::to_string(p)));
  }
  SubmitResult sub = svc.submit(t, std::move(req));
  ASSERT_TRUE(sub.accepted());
  Response r = sub.response.get();
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  for (ProcId p = 0; p < machine().P; ++p) {
    for (ProcId q = 0; q < machine().P; ++q) {
      EXPECT_EQ(to_str(r.report.item_at(p, q)), "from-" + std::to_string(q));
    }
  }
}

TEST(SvcService, EqualWeightTenantsShareWithinTolerance) {
  CollectiveService::Options opts;
  opts.pools = 1;
  CollectiveService svc(machine(), opts);
  svc.pause();
  const TenantId a = svc.register_tenant({.name = "fair-a",
                                          .queue_capacity = 64});
  const TenantId b = svc.register_tenant({.name = "fair-b",
                                          .queue_capacity = 64});
  // Both tenants saturated before any dispatch happens.  This test
  // asserts the stride scheduler's dispatch order, so the requests are
  // interactive, which never fuse: batch class would coalesce the
  // identical-shape backlog into admission-order batches.
  std::vector<std::pair<TenantId, std::future<Response>>> futures;
  for (int i = 0; i < 30; ++i) {
    for (const TenantId t : {a, b}) {
      SubmitResult sub = svc.submit(t, bcast_req("x", QoS::kInteractive));
      ASSERT_TRUE(sub.accepted());
      futures.emplace_back(t, std::move(sub.response));
    }
  }
  svc.resume();
  std::vector<std::pair<std::uint64_t, TenantId>> order;
  for (auto& [t, fut] : futures) {
    Response r = fut.get();
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    order.emplace_back(r.dispatch_seq, t);
  }
  std::sort(order.begin(), order.end());
  // Over the first 40 dispatches both queues were still backlogged, so the
  // fair share is 20 each; the ISSUE tolerance is +-20% (stride is exact
  // to +-1, the slack covers scheduling noise).
  int ca = 0;
  for (int i = 0; i < 40; ++i) ca += order[static_cast<std::size_t>(i)].second == a;
  EXPECT_GE(ca, 16);
  EXPECT_LE(ca, 24);
}

TEST(SvcService, WeightedTenantsSplitByWeight) {
  CollectiveService::Options opts;
  opts.pools = 1;
  CollectiveService svc(machine(), opts);
  svc.pause();
  const TenantId heavy = svc.register_tenant(
      {.name = "w-heavy", .weight = 3, .queue_capacity = 64});
  const TenantId light = svc.register_tenant(
      {.name = "w-light", .weight = 1, .queue_capacity = 64});
  std::vector<std::pair<TenantId, std::future<Response>>> futures;
  // As above: weighted stride order is the subject, so the requests are
  // interactive and run unfused.
  for (int i = 0; i < 40; ++i) {
    for (const TenantId t : {heavy, light}) {
      SubmitResult sub = svc.submit(t, bcast_req("x", QoS::kInteractive));
      ASSERT_TRUE(sub.accepted());
      futures.emplace_back(t, std::move(sub.response));
    }
  }
  svc.resume();
  std::vector<std::pair<std::uint64_t, TenantId>> order;
  for (auto& [t, fut] : futures) {
    Response r = fut.get();
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    order.emplace_back(r.dispatch_seq, t);
  }
  std::sort(order.begin(), order.end());
  // While both are backlogged (first 52 dispatches; light's 40 outlast
  // heavy's 3/4 share), heavy should hold ~3/4 of the slots.
  int h = 0;
  for (int i = 0; i < 52; ++i) h += order[static_cast<std::size_t>(i)].second == heavy;
  EXPECT_NEAR(h, 39, 8);
}

TEST(SvcService, FullQueueAppliesBackpressure) {
  CollectiveService::Options opts;
  opts.pools = 1;
  CollectiveService svc(machine(), opts);
  svc.pause();
  const TenantId t = svc.register_tenant({.name = "bp",
                                          .queue_capacity = 4});
  std::vector<std::future<Response>> accepted;
  int rejected = 0;
  for (int i = 0; i < 10; ++i) {
    SubmitResult sub = svc.submit(t, bcast_req("x"));
    if (sub.accepted()) {
      accepted.push_back(std::move(sub.response));
    } else {
      EXPECT_EQ(sub.status, Status::kQueueFull);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted.size(), 4u);
  EXPECT_EQ(rejected, 6);
  auto c = svc.tenant_counters(t);
  EXPECT_EQ(c.admitted, 4u);
  EXPECT_EQ(c.rejected_queue_full, 6u);
  EXPECT_EQ(c.queue_depth, 4u);
  svc.resume();
  for (auto& fut : accepted) {
    EXPECT_EQ(fut.get().status, Status::kOk);
  }
  c = svc.tenant_counters(t);
  EXPECT_EQ(c.completed, 4u);
  EXPECT_EQ(c.queue_depth, 0u);
}

TEST(SvcService, RateLimitRejectsSynchronously) {
  CollectiveService svc(machine(), {});
  const TenantId t = svc.register_tenant(
      {.name = "rl", .rate_per_sec = 1.0, .burst = 2.0});
  // Back-to-back submits land within the same token-bucket instant: the
  // burst admits two, the third is over rate.
  SubmitResult s1 = svc.submit(t, bcast_req("a"));
  SubmitResult s2 = svc.submit(t, bcast_req("b"));
  SubmitResult s3 = svc.submit(t, bcast_req("c"));
  EXPECT_TRUE(s1.accepted());
  EXPECT_TRUE(s2.accepted());
  EXPECT_EQ(s3.status, Status::kRateLimited);
  EXPECT_EQ(s1.response.get().status, Status::kOk);
  EXPECT_EQ(s2.response.get().status, Status::kOk);
  const auto c = svc.tenant_counters(t);
  EXPECT_EQ(c.admitted, 2u);
  EXPECT_EQ(c.rejected_rate_limited, 1u);
}

TEST(SvcService, NonFiniteOrNegativeRateLimitIsRejectedAtRegistration) {
  // A NaN burst would keep the bucket at NaN, which never reads as empty:
  // every submit would be admitted.
  CollectiveService svc(machine(), {});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)svc.register_tenant(
                   {.name = "rl-nan", .rate_per_sec = 1.0, .burst = nan}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)svc.register_tenant({.name = "rl-neg", .rate_per_sec = -1.0}),
      std::invalid_argument);
  // Neither rejected tenant took an id, a metric series or its label.
  EXPECT_TRUE(svc.status().tenants.empty());
  const std::string text =
      obs::prometheus_text(obs::MetricsRegistry::global());
  EXPECT_EQ(text.find("tenant=\"rl-nan"), std::string::npos);
  EXPECT_EQ(text.find("tenant=\"rl-neg"), std::string::npos);
  const TenantId t = svc.register_tenant(
      {.name = "rl-nan", .rate_per_sec = 1.0, .burst = 1.0});
  EXPECT_EQ(t, 0);
  EXPECT_EQ(svc.status().tenants.at(0).name, "rl-nan");
  // The valid limit still limits.
  SubmitResult s1 = svc.submit(t, bcast_req("a"));
  SubmitResult s2 = svc.submit(t, bcast_req("b"));
  EXPECT_TRUE(s1.accepted());
  EXPECT_EQ(s2.status, Status::kRateLimited);
  EXPECT_EQ(s1.response.get().status, Status::kOk);
}

TEST(SvcService, InteractivePreemptsQueuedBatchWork) {
  CollectiveService::Options opts;
  opts.pools = 1;
  CollectiveService svc(machine(), opts);
  svc.pause();
  const TenantId t = svc.register_tenant({.name = "qos",
                                          .queue_capacity = 16});
  // Submission order is worst-to-best; dispatch order must invert it.
  SubmitResult be = svc.submit(t, bcast_req("be", QoS::kBestEffort));
  SubmitResult ba = svc.submit(t, bcast_req("ba", QoS::kBatch));
  SubmitResult in = svc.submit(t, bcast_req("in", QoS::kInteractive));
  ASSERT_TRUE(be.accepted());
  ASSERT_TRUE(ba.accepted());
  ASSERT_TRUE(in.accepted());
  svc.resume();
  const Response r_be = be.response.get();
  const Response r_ba = ba.response.get();
  const Response r_in = in.response.get();
  ASSERT_EQ(r_be.status, Status::kOk);
  ASSERT_EQ(r_ba.status, Status::kOk);
  ASSERT_EQ(r_in.status, Status::kOk);
  EXPECT_LT(r_in.dispatch_seq, r_ba.dispatch_seq);
  EXPECT_LT(r_ba.dispatch_seq, r_be.dispatch_seq);
}

TEST(SvcService, DrainingShutdownCompletesQueuedWork) {
  CollectiveService::Options opts;
  opts.pools = 2;
  CollectiveService svc(machine(), opts);
  svc.pause();
  const TenantId t = svc.register_tenant({.name = "drain",
                                          .queue_capacity = 16});
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    SubmitResult sub =
        svc.submit(t, bcast_req(std::string("d").append(std::to_string(i))));
    ASSERT_TRUE(sub.accepted());
    futures.push_back(std::move(sub.response));
  }
  // Draining shutdown overrides the pause: everything queued completes.
  svc.shutdown(/*drain=*/true);
  for (auto& fut : futures) {
    EXPECT_EQ(fut.get().status, Status::kOk);
  }
  EXPECT_FALSE(svc.accepting());
  EXPECT_EQ(svc.submit(t, bcast_req("late")).status, Status::kShutdown);
}

TEST(SvcService, ImmediateShutdownFailsQueuedWorkExplicitly) {
  CollectiveService::Options opts;
  opts.pools = 1;
  CollectiveService svc(machine(), opts);
  svc.pause();
  const TenantId t = svc.register_tenant({.name = "abort",
                                          .queue_capacity = 16});
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    SubmitResult sub = svc.submit(t, bcast_req("x"));
    ASSERT_TRUE(sub.accepted());
    futures.push_back(std::move(sub.response));
  }
  svc.shutdown(/*drain=*/false);
  // Nothing dispatched (the service was paused); every future resolves
  // with an explicit kShutdown instead of dangling forever.
  for (auto& fut : futures) {
    const Response r = fut.get();
    EXPECT_EQ(r.status, Status::kShutdown);
    EXPECT_FALSE(r.error.empty());
  }
  const auto c = svc.tenant_counters(t);
  EXPECT_EQ(c.completed, 0u);
  EXPECT_EQ(c.queue_depth, 0u);
}

TEST(SvcService, MalformedRequestResolvesWithError) {
  CollectiveService svc(machine(), {});
  const TenantId t = svc.register_tenant({.name = "bad-req"});
  Request req = reduce_req(machine().P);
  req.values.pop_back();  // wrong contribution count: the engine throws
  SubmitResult sub = svc.submit(t, std::move(req));
  ASSERT_TRUE(sub.accepted());
  const Response r = sub.response.get();
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_FALSE(r.error.empty());
}

TEST(SvcService, UnknownTenantThrows) {
  CollectiveService svc(machine(), {});
  EXPECT_THROW((void)svc.submit(3, bcast_req("x")), std::invalid_argument);
  EXPECT_THROW((void)svc.tenant_counters(-1), std::invalid_argument);
}

TEST(SvcService, TenantLabelsAreEscapedInExposition) {
  CollectiveService svc(machine(), {});
  const TenantId t =
      svc.register_tenant({.name = "we\"ird\\team\nprod"});
  SubmitResult sub = svc.submit(t, bcast_req("x"));
  ASSERT_TRUE(sub.accepted());
  ASSERT_EQ(sub.response.get().status, Status::kOk);
  const std::string text =
      obs::prometheus_text(obs::MetricsRegistry::global());
  // The exporter must render the hostile name with \" \\ \n escapes — one
  // line per series, still parseable.
  EXPECT_NE(text.find("tenant=\"we\\\"ird\\\\team\\nprod\""),
            std::string::npos);
  EXPECT_EQ(text.find("we\"ird"), std::string::npos);
}

TEST(SvcService, DuplicateTenantNamesGetDistinctMetricSeries) {
  CollectiveService svc(machine(), {});
  const TenantId first = svc.register_tenant({.name = "dup-name"});
  const TenantId second = svc.register_tenant({.name = "dup-name"});
  ASSERT_NE(first, second);
  const std::string text =
      obs::prometheus_text(obs::MetricsRegistry::global());
  EXPECT_NE(text.find("tenant=\"dup-name\""), std::string::npos);
  EXPECT_NE(text.find("tenant=\"dup-name#" + std::to_string(second) + "\""),
            std::string::npos);
}

TEST(SvcService, ConcurrentSubmittersAndShutdownResolveEveryFuture) {
  CollectiveService::Options opts;
  opts.pools = 2;
  CollectiveService svc(machine(), opts);
  constexpr int kThreads = 4;
  std::vector<TenantId> tenants;
  for (int i = 0; i < kThreads; ++i) {
    tenants.push_back(svc.register_tenant(
        {.name = "race-" + std::to_string(i), .queue_capacity = 32}));
  }
  std::atomic<int> accepted{0};
  std::atomic<int> resolved{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      std::vector<std::future<Response>> futures;
      for (int n = 0; n < 40; ++n) {
        SubmitResult sub = svc.submit(tenants[static_cast<std::size_t>(i)],
                                      bcast_req("r"));
        if (sub.status == Status::kShutdown) break;
        if (sub.accepted()) {
          accepted.fetch_add(1);
          futures.push_back(std::move(sub.response));
        }
      }
      for (auto& fut : futures) {
        const Response r = fut.get();  // must resolve: kOk under drain
        EXPECT_EQ(r.status, Status::kOk) << r.error;
        resolved.fetch_add(1);
      }
    });
  }
  // Shut down while submitters are racing: admitted work still drains.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  svc.shutdown(/*drain=*/true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(resolved.load(), accepted.load());
}

/// 8 threads x 500 submits at 1, 2 and 3 engines: fusible, interactive
/// and reduce traffic, each thread keeping up to 4 futures in flight, so
/// submitters race to take engines, queue behind lent ones and fuse.
/// Every future resolves with its own exact result, and the accounting
/// balances.
TEST(SvcService, HammerOfEightSubmittersResolvesEveryFuture) {
  constexpr int kThreads = 8;
  constexpr int kSubmits = 500;
  constexpr std::size_t kInFlight = 4;
  for (const int pools : {1, 2, 3}) {
    CollectiveService::Options opts;
    opts.pools = pools;
    CollectiveService svc(machine(), opts);
    std::vector<TenantId> tenants;
    for (int i = 0; i < kThreads; ++i) {
      tenants.push_back(svc.register_tenant(
          {.name = "hammer-" + std::to_string(pools) + "-" + std::to_string(i),
           .queue_capacity = 2 * kInFlight}));
    }
    std::atomic<int> resolved{0};
    std::vector<std::thread> workers;
    for (int i = 0; i < kThreads; ++i) {
      workers.emplace_back([&, i] {
        std::deque<std::pair<int, std::future<Response>>> inflight;
        const auto settle = [&] {
          auto [kind, fut] = std::move(inflight.front());
          inflight.pop_front();
          const Response r = fut.get();
          ASSERT_EQ(r.status, Status::kOk) << r.error;
          if (kind == 2) {
            EXPECT_EQ(to_u64(r.report.folded_at(0)), 1u + 2 + 3 + 4);
          } else {
            EXPECT_EQ(to_str(r.report.item_at(3, 0)),
                      "hammer-" + std::to_string(i));
          }
          resolved.fetch_add(1);
        };
        for (int n = 0; n < kSubmits; ++n) {
          const int kind = n % 3;
          Request req = kind == 2 ? reduce_req(machine().P)
                                  : bcast_req("hammer-" + std::to_string(i),
                                              kind == 0 ? QoS::kBatch
                                                        : QoS::kInteractive);
          SubmitResult sub =
              svc.submit(tenants[static_cast<std::size_t>(i)], std::move(req));
          ASSERT_TRUE(sub.accepted()) << status_name(sub.status);
          inflight.emplace_back(kind, std::move(sub.response));
          while (inflight.size() > kInFlight) settle();
        }
        while (!inflight.empty()) settle();
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(resolved.load(), kThreads * kSubmits) << pools << " pools";
    std::uint64_t admitted = 0, completed = 0;
    for (const TenantId t : tenants) {
      const auto c = svc.tenant_counters(t);
      admitted += c.admitted;
      completed += c.completed;
      EXPECT_EQ(c.queue_depth, 0u);
    }
    EXPECT_EQ(admitted, static_cast<std::uint64_t>(kThreads * kSubmits));
    EXPECT_EQ(completed, admitted);
    const auto st = svc.status();
    EXPECT_EQ(st.inflight, 0u);
    EXPECT_EQ(st.queued, 0u);
  }
}

TEST(SvcService, IdleSubmitRunsOnTheCallingThread) {
  CollectiveService svc(machine(), {});
  const TenantId t = svc.register_tenant({.name = "idle-caller"});

  SubmitResult b = svc.submit(t, bcast_req("on-the-caller"));
  ASSERT_TRUE(b.accepted());
  EXPECT_TRUE(ready_now(b.response)) << "an idle submit runs before returning";
  const Response rb = b.response.get();
  ASSERT_EQ(rb.status, Status::kOk) << rb.error;
  for (ProcId p = 0; p < machine().P; ++p) {
    EXPECT_EQ(to_str(rb.report.item_at(p, 0)), "on-the-caller");
  }

  SubmitResult r = svc.submit(t, reduce_req(machine().P));
  ASSERT_TRUE(r.accepted());
  EXPECT_TRUE(ready_now(r.response));
  const Response rr = r.response.get();
  ASSERT_EQ(rr.status, Status::kOk) << rr.error;
  EXPECT_EQ(to_u64(rr.report.folded_at(0)), 1u + 2 + 3 + 4);

  Request gather;
  gather.op = OpKind::kAllgather;
  for (int p = 0; p < machine().P; ++p) {
    gather.values.push_back(of_str("v" + std::to_string(p)));
  }
  SubmitResult g = svc.submit(t, std::move(gather));
  ASSERT_TRUE(g.accepted());
  EXPECT_TRUE(ready_now(g.response));
  const Response rg = g.response.get();
  ASSERT_EQ(rg.status, Status::kOk) << rg.error;
  for (ProcId p = 0; p < machine().P; ++p) {
    for (ProcId q = 0; q < machine().P; ++q) {
      EXPECT_EQ(to_str(rg.report.item_at(p, q)), "v" + std::to_string(q));
    }
  }

  // Dispatch order, pool attribution and accounting as on the pool path.
  EXPECT_EQ(rb.dispatch_seq, 0u);
  EXPECT_EQ(rr.dispatch_seq, 1u);
  EXPECT_EQ(rg.dispatch_seq, 2u);
  for (const Response* resp : {&rb, &rr, &rg}) {
    EXPECT_EQ(resp->pool, 0);
    EXPECT_EQ(resp->fused, 1u);
    EXPECT_GE(resp->total_ns, resp->queue_wait_ns);
  }
  const auto c = svc.tenant_counters(t);
  EXPECT_EQ(c.admitted, 3u);
  EXPECT_EQ(c.completed, 3u);
  EXPECT_EQ(c.queue_depth, 0u);
  const auto st = svc.status();
  EXPECT_EQ(st.caller_runs, 3u);
  EXPECT_EQ(st.inflight, 0u);
}

TEST(SvcService, PausedServiceQueuesInsteadOfRunningOnTheCaller) {
  CollectiveService svc(machine(), {});
  const TenantId t = svc.register_tenant({.name = "paused-caller"});
  svc.pause();
  SubmitResult sub = svc.submit(t, bcast_req("held"));
  ASSERT_TRUE(sub.accepted());
  EXPECT_EQ(sub.response.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "a paused service must hold the request, not run it";
  EXPECT_EQ(svc.queued(), 1u);
  svc.resume();
  const Response r = sub.response.get();
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(to_str(r.report.item_at(3, 0)), "held");
  EXPECT_EQ(svc.status().caller_runs, 0u);
}

TEST(SvcService, SubmitterWithEveryEngineLentReturnsBeforeItsRequestRuns) {
  CollectiveService::Options opts;
  opts.pools = 2;
  CollectiveService svc(machine(), opts);
  const TenantId t = svc.register_tenant({.name = "lent-engines"});
  // Two held runs: the first submitter takes engine 0; the second finds
  // engine 1 free and takes it, so both engines are lent.
  Gate gate0, gate1;
  Response held0, held1;
  std::thread caller0([&] {
    SubmitResult sub = svc.submit(t, gated_reduce_req(machine().P, gate0));
    ASSERT_TRUE(sub.accepted());
    EXPECT_TRUE(ready_now(sub.response));
    held0 = sub.response.get();
  });
  gate0.wait_entered();
  std::thread caller1([&] {
    SubmitResult sub = svc.submit(t, gated_reduce_req(machine().P, gate1));
    ASSERT_TRUE(sub.accepted());
    EXPECT_TRUE(ready_now(sub.response));
    held1 = sub.response.get();
  });
  gate1.wait_entered();
  // Every engine is lent: this submit queues and returns at once, before
  // its request runs, and runs nothing itself.
  SubmitResult other = svc.submit(t, bcast_req("beside", QoS::kInteractive));
  ASSERT_TRUE(other.accepted());
  EXPECT_FALSE(ready_now(other.response));
  EXPECT_EQ(svc.queued(), 1u);
  gate0.release();
  gate1.release();
  caller0.join();
  caller1.join();
  // One of the holders ran it before handing its engine back.
  ASSERT_TRUE(ready_now(other.response));
  const Response ro = other.response.get();
  ASSERT_EQ(ro.status, Status::kOk) << ro.error;
  EXPECT_TRUE(ro.pool == 0 || ro.pool == 1) << ro.pool;
  EXPECT_EQ(to_str(ro.report.item_at(2, 0)), "beside");
  ASSERT_EQ(held0.status, Status::kOk) << held0.error;
  ASSERT_EQ(held1.status, Status::kOk) << held1.error;
  EXPECT_NE(held0.pool, held1.pool);
  EXPECT_EQ(to_u64(held0.report.folded_at(0)), 1u + 2 + 3 + 4);
  EXPECT_EQ(to_u64(held1.report.folded_at(0)), 1u + 2 + 3 + 4);
  const auto st = svc.status();
  EXPECT_EQ(st.caller_runs, 2u);
  EXPECT_EQ(st.inflight, 0u);
  const auto c = svc.tenant_counters(t);
  EXPECT_EQ(c.admitted, 3u);
  EXPECT_EQ(c.completed, 3u);
}

TEST(SvcService, IdlePathKeepsRateLimitAndQueueFullRejections) {
  {
    CollectiveService svc(machine(), {});
    const TenantId t = svc.register_tenant(
        {.name = "idle-rl", .rate_per_sec = 1.0, .burst = 2.0});
    SubmitResult s1 = svc.submit(t, bcast_req("a"));
    SubmitResult s2 = svc.submit(t, bcast_req("b"));
    SubmitResult s3 = svc.submit(t, bcast_req("c"));
    ASSERT_TRUE(s1.accepted());
    ASSERT_TRUE(s2.accepted());
    EXPECT_TRUE(ready_now(s1.response));
    EXPECT_TRUE(ready_now(s2.response));
    EXPECT_EQ(s3.status, Status::kRateLimited);
    EXPECT_FALSE(s3.response.valid());
    const auto c = svc.tenant_counters(t);
    EXPECT_EQ(c.admitted, 2u);
    EXPECT_EQ(c.completed, 2u);
    EXPECT_EQ(c.rejected_rate_limited, 1u);
  }
  {
    // One pool, lent to a held caller run.  The run left the tenant's
    // queue when it was picked, so one more request fits; the next is
    // rejected.  The held caller's combiner runs the queued one before it
    // hands the engine back.
    CollectiveService::Options opts;
    opts.pools = 1;
    CollectiveService svc(machine(), opts);
    const TenantId t =
        svc.register_tenant({.name = "idle-qf", .queue_capacity = 1});
    Gate gate;
    std::thread caller([&] {
      SubmitResult sub = svc.submit(t, gated_reduce_req(machine().P, gate));
      ASSERT_TRUE(sub.accepted());
      EXPECT_EQ(sub.response.get().status, Status::kOk);
    });
    gate.wait_entered();
    SubmitResult queued = svc.submit(t, bcast_req("queued"));
    ASSERT_TRUE(queued.accepted());
    SubmitResult full = svc.submit(t, bcast_req("full"));
    EXPECT_EQ(full.status, Status::kQueueFull);
    EXPECT_FALSE(ready_now(queued.response));
    gate.release();
    caller.join();
    const Response r = queued.response.get();
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.pool, 0);
    const auto c = svc.tenant_counters(t);
    EXPECT_EQ(c.admitted, 2u);
    EXPECT_EQ(c.completed, 2u);
    EXPECT_EQ(c.rejected_queue_full, 1u);
    EXPECT_EQ(svc.status().caller_runs, 1u);
  }
}

TEST(SvcService, ShutdownWaitsForCallerRuns) {
  CollectiveService svc(machine(), {});
  const TenantId t = svc.register_tenant({.name = "shutdown-caller"});
  Gate gate;
  std::promise<Response> held;
  std::thread caller([&] {
    SubmitResult sub = svc.submit(t, gated_reduce_req(machine().P, gate));
    if (sub.accepted()) {
      held.set_value(sub.response.get());
    } else {
      Response rejected;
      rejected.status = sub.status;
      held.set_value(std::move(rejected));
    }
  });
  gate.wait_entered();
  std::atomic<bool> returned{false};
  std::thread stopper([&] {
    svc.shutdown(/*drain=*/true);
    returned.store(true);
  });
  // Every admitted request must be complete when shutdown returns, and
  // this one is still running on its submitter.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load()) << "shutdown returned under a caller run";
  gate.release();
  stopper.join();
  caller.join();
  const Response r = held.get_future().get();
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(to_u64(r.report.folded_at(0)), 1u + 2 + 3 + 4);
  const auto c = svc.tenant_counters(t);
  EXPECT_EQ(c.admitted, 1u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.queue_depth, 0u);
  EXPECT_EQ(svc.status().inflight, 0u);
}

/// Randomized multi-tenant soak: mixed ops, QoS classes and rejection
/// paths under concurrent submitters, bounded by LOGPC_SOAK_MS (CI's TSan
/// job raises it; the default keeps tier-1 fast).  A fifth, closed-loop
/// submitter runs throughout: while the others keep the engines busy its
/// requests queue, or it finds an engine free and combines, racing the
/// other combiners; then it runs alone (every request on itself) until a
/// draining shutdown lands in the middle of its runs.  The invariant under
/// test: every accepted future resolves, and the per-tenant accounting
/// balances exactly after the draining shutdown.
TEST(SvcSoak, RandomizedMultiTenantTraffic) {
  const int soak_ms = env_int("LOGPC_SOAK_MS", 150);
  const unsigned seed =
      static_cast<unsigned>(env_int("LOGPC_SOAK_SEED", 20260808));
  CollectiveService::Options opts;
  opts.pools = 2;
  CollectiveService svc(machine(), opts);

  constexpr int kTenants = 4;
  std::vector<TenantId> ids;
  ids.push_back(svc.register_tenant(
      {.name = "soak-interactive", .weight = 4, .queue_capacity = 16}));
  ids.push_back(svc.register_tenant(
      {.name = "soak-batch", .weight = 2, .queue_capacity = 32}));
  ids.push_back(svc.register_tenant(
      {.name = "soak-scavenger", .weight = 1, .queue_capacity = 8}));
  ids.push_back(svc.register_tenant({.name = "soak-limited",
                                     .weight = 1,
                                     .queue_capacity = 8,
                                     .rate_per_sec = 200.0}));
  const TenantId solo_id =
      svc.register_tenant({.name = "soak-solo", .queue_capacity = 4});

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(soak_ms);
  std::atomic<std::uint64_t> ok{0}, failed{0};
  // The closed-loop submitter: one request at a time until shutdown
  // rejects it.
  std::thread solo([&] {
    std::mt19937 rng(seed + kTenants);
    for (;;) {
      Request req = rng() % 2 == 0 ? bcast_req("solo", QoS::kBatch)
                                   : reduce_req(machine().P);
      SubmitResult sub = svc.submit(solo_id, std::move(req));
      if (sub.status == Status::kShutdown) break;
      if (!sub.accepted()) continue;
      const Response r = sub.response.get();
      (r.status == Status::kOk ? ok : failed).fetch_add(1);
    }
  });
  std::vector<std::thread> submitters;
  for (int i = 0; i < kTenants; ++i) {
    submitters.emplace_back([&, i] {
      std::mt19937 rng(seed + static_cast<unsigned>(i));
      std::deque<std::future<Response>> inflight;
      const auto settle = [&](std::future<Response> fut) {
        const Response r = fut.get();
        (r.status == Status::kOk ? ok : failed).fetch_add(1);
        EXPECT_NE(r.status, Status::kShutdown);
      };
      while (std::chrono::steady_clock::now() < deadline) {
        Request req;
        switch (rng() % 3) {
          case 0: req = bcast_req("soak", QoS::kInteractive); break;
          case 1: req = bcast_req("soak", QoS::kBestEffort); break;
          default: req = reduce_req(machine().P); break;
        }
        SubmitResult sub =
            svc.submit(ids[static_cast<std::size_t>(i)], std::move(req));
        if (sub.accepted()) inflight.push_back(std::move(sub.response));
        while (inflight.size() > 16) {
          settle(std::move(inflight.front()));
          inflight.pop_front();
        }
      }
      while (!inflight.empty()) {
        settle(std::move(inflight.front()));
        inflight.pop_front();
      }
    });
  }
  for (auto& s : submitters) s.join();
  // Single-submitter phase: the service is idle between the solo
  // submitter's requests, so they run on it; shut down mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(soak_ms / 4 + 1));
  svc.shutdown(/*drain=*/true);
  solo.join();
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(svc.status().caller_runs, 0u);
  ids.push_back(solo_id);
  // Accounting balances: everything admitted was completed (nothing
  // leaked, nothing double-counted), and rejection was the only other
  // exit.
  std::uint64_t admitted = 0, completed = 0;
  for (const TenantId t : ids) {
    const auto c = svc.tenant_counters(t);
    admitted += c.admitted;
    completed += c.completed;
    EXPECT_EQ(c.queue_depth, 0u);
  }
  EXPECT_EQ(admitted, completed);
  EXPECT_EQ(completed, ok.load());
  EXPECT_GT(ok.load(), 0u);
}

}  // namespace
}  // namespace logpc::svc
