#include "svc/fusion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "svc/service.hpp"
#include "svc_test_util.hpp"

/// The high-throughput path: fusion batching and the Section 3 segmented
/// pipeline.  The load-bearing property throughout is *byte-exactness* —
/// a request must not be able to tell whether it ran alone, fused into a
/// batch, or split into segments.  Policy tests build their backlog on a
/// paused service with one pool, or behind a run that holds the only
/// engine, so batch composition is deterministic.

namespace logpc::svc {

/// The service's test seam: sets the fault spec every dispatch injects.
/// Call before the first submit.
struct CollectiveServiceTestPeer {
  static void set_fault(CollectiveService& svc, const fault::FaultSpec& spec) {
    svc.fault_ = spec;
  }
};

namespace {

using testutil::Gate;
using testutil::gated;
using testutil::ready_now;

Params machine() { return Params{4, 4, 1, 2}; }

exec::Bytes of_str(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return exec::Bytes(p, p + s.size());
}

std::string to_str(const exec::Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

Request bcast_req(const std::string& payload, QoS qos = QoS::kBatch) {
  Request r;
  r.op = OpKind::kBroadcast;
  r.qos = qos;
  r.payload = of_str(payload);
  return r;
}

/// Per-byte acc <- acc*3 + rhs (mod 256): size-preserving, elementwise,
/// and deliberately neither commutative nor associative, so any fold
/// reordering introduced by fusion would show up bitwise.
exec::CombineFn affine3() {
  return [](exec::Bytes& acc, std::span<const std::byte> rhs) {
    const std::size_t n = std::min(acc.size(), rhs.size());
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] = static_cast<std::byte>(
          static_cast<unsigned char>(acc[i]) * 3u +
          static_cast<unsigned char>(rhs[i]));
    }
  };
}

Request generic_reduce_req(int P, unsigned seed) {
  Request r;
  r.op = OpKind::kReduce;
  for (int p = 0; p < P; ++p) {
    exec::Bytes v(8);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<std::byte>((seed * 31u + p * 7u + i) & 0xff);
    }
    r.values.push_back(std::move(v));
  }
  r.combine = exec::Combiner(affine3());
  r.combine_tag = "affine3";
  return r;
}

Request typed_reduce_req(int P, double seed) {
  Request r;
  r.op = OpKind::kReduce;
  for (int p = 0; p < P; ++p) {
    exec::Bytes v(2 * sizeof(double));
    const double d[2] = {seed + p, seed * 0.25 - p};
    std::memcpy(v.data(), d, sizeof d);
    r.values.push_back(std::move(v));
  }
  r.combine = exec::Combiner(exec::KernelSpec{exec::Op::kSum,
                                              exec::DType::kF64});
  return r;
}

Request allgather_req(int P, unsigned seed) {
  Request r;
  r.op = OpKind::kAllgather;
  for (int p = 0; p < P; ++p) {
    r.values.push_back(of_str("ag-" + std::to_string(seed) + "-" +
                              std::to_string(p)));
  }
  return r;
}

/// Runs `reqs` on a service with the given options (paused backlog, one
/// pool: deterministic batching) and returns the responses in
/// submission order.
std::vector<Response> run_backlog(
    CollectiveService::Options opts, std::vector<Request> reqs,
    CollectiveService** out_svc = nullptr,
    const std::optional<fault::FaultSpec>& fault = std::nullopt) {
  opts.pools = 1;
  static std::vector<std::unique_ptr<CollectiveService>> keep_alive;
  auto svc = std::make_unique<CollectiveService>(machine(), opts);
  if (fault.has_value()) CollectiveServiceTestPeer::set_fault(*svc, *fault);
  svc->pause();
  const TenantId t = svc->register_tenant({.name = "fusion-backlog",
                                           .queue_capacity = 64});
  std::vector<std::future<Response>> futures;
  for (Request& r : reqs) {
    SubmitResult sub = svc->submit(t, std::move(r));
    EXPECT_TRUE(sub.accepted());
    futures.push_back(std::move(sub.response));
  }
  svc->resume();
  std::vector<Response> out;
  out.reserve(futures.size());
  for (auto& f : futures) out.push_back(f.get());
  if (out_svc != nullptr) {
    *out_svc = svc.get();
    keep_alive.push_back(std::move(svc));
  }
  return out;
}

// ---------------------------------------------------------------- units

TEST(SvcFusion, FusionKeyRules) {
  // Broadcasts key on (root, bytes); an empty payload never fuses.
  Request b = bcast_req("eight-by");
  const auto kb = fusion_key(b);
  ASSERT_TRUE(kb.has_value());
  EXPECT_EQ(kb->op, OpKind::kBroadcast);
  EXPECT_EQ(kb->bytes, 8u);
  EXPECT_TRUE(*kb == *fusion_key(bcast_req("12345678")))
      << "same shape from a different request must produce an equal key";
  EXPECT_FALSE(fusion_key(bcast_req("")).has_value());
  Request b2 = bcast_req("eight-by");
  b2.root = 1;
  EXPECT_FALSE(*kb == *fusion_key(b2)) << "different roots must not fuse";
  Request b3 = bcast_req("nine-byte");
  EXPECT_FALSE(*kb == *fusion_key(b3)) << "different sizes must not fuse";

  // Typed reduces carry the kernel identity; a payload that is not a
  // whole number of elements would move an element boundary across the
  // request seam, so it must refuse to fuse.
  Request tr = typed_reduce_req(4, 1.0);
  const auto kt = fusion_key(tr);
  ASSERT_TRUE(kt.has_value());
  EXPECT_TRUE(kt->typed);
  Request ragged = typed_reduce_req(4, 1.0);
  for (auto& v : ragged.values) v.resize(9);  // 9 % sizeof(double) != 0
  EXPECT_FALSE(fusion_key(ragged).has_value());

  // Generic reduces fuse only through an explicit combine_tag promise.
  Request gr = generic_reduce_req(4, 1);
  ASSERT_TRUE(fusion_key(gr).has_value());
  Request untagged = generic_reduce_req(4, 1);
  untagged.combine_tag.clear();
  EXPECT_FALSE(fusion_key(untagged).has_value());
  Request other_tag = generic_reduce_req(4, 1);
  other_tag.combine_tag = "something-else";
  EXPECT_FALSE(*fusion_key(gr) == *fusion_key(other_tag));

  // Ragged per-proc values (any op) never fuse.
  Request rag = allgather_req(4, 1);
  rag.values[2].push_back(std::byte{0});
  EXPECT_FALSE(fusion_key(rag).has_value());
  ASSERT_TRUE(fusion_key(allgather_req(4, 1)).has_value());
}

TEST(SvcFusion, ChooseSegmentsPolicy) {
  const SegmentPolicy pol{.threshold = 4096, .segment_bytes = 1024,
                          .max_segments = 8};
  EXPECT_EQ(choose_segments(0, pol), 1);
  EXPECT_EQ(choose_segments(4095, pol), 1);
  EXPECT_EQ(choose_segments(4096, pol), 4);
  EXPECT_EQ(choose_segments(6000, pol), 6);
  EXPECT_EQ(choose_segments(1 << 20, pol), 8) << "clamped to max_segments";
  EXPECT_EQ(choose_segments(1 << 20, SegmentPolicy{.threshold = 0}), 1)
      << "threshold 0 disables segmentation";
  EXPECT_EQ(choose_segments(1 << 20,
                            SegmentPolicy{.threshold = 1, .max_segments = 1}),
            1)
      << "max_segments < 2 disables segmentation";
}

TEST(SvcFusion, FusedCombinerAppliesIndependentlyPerChunk) {
  Request ex = generic_reduce_req(4, 9);
  const std::size_t chunk = 8;
  const exec::Combiner fused = fused_combiner(ex, chunk, 3);
  exec::Bytes acc(3 * chunk), rhs(3 * chunk);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = static_cast<std::byte>(i * 5 + 1);
    rhs[i] = static_cast<std::byte>(i * 11 + 2);
  }
  exec::Bytes expect = acc;
  for (std::size_t m = 0; m < 3; ++m) {
    exec::Bytes a(expect.begin() + static_cast<std::ptrdiff_t>(m * chunk),
                  expect.begin() + static_cast<std::ptrdiff_t>((m + 1) * chunk));
    affine3()(a, std::span<const std::byte>(rhs).subspan(m * chunk, chunk));
    std::copy(a.begin(), a.end(),
              expect.begin() + static_cast<std::ptrdiff_t>(m * chunk));
  }
  exec::Bytes got = acc;
  fused(got, rhs);
  EXPECT_EQ(got, expect);
  // count <= 1 or a typed exemplar pass the combiner through untouched.
  EXPECT_FALSE(fused_combiner(ex, chunk, 1).typed());
  Request typed = typed_reduce_req(4, 1.0);
  EXPECT_TRUE(fused_combiner(typed, 16, 3).typed());
}

TEST(SvcFusion, MemberReportSlicesTheFusedRun) {
  exec::ExecReport run;
  run.payload_bytes = 8;
  run.wall_ns = 1234;
  run.warm_pool = true;
  run.items.resize(2);
  // One coalesced buffer per proc, as the engine reports every broadcast
  // (segmented or not): member 1 sees its chunk of it.
  run.items[0] = {of_str("aaBBccDD")};
  run.items[1] = {of_str("aaBBccDD")};
  const exec::ExecReport m1 =
      member_report(run, /*chunk=*/4, /*index=*/1, /*count=*/2);
  ASSERT_EQ(m1.items.size(), 2u);
  ASSERT_EQ(m1.items[0].size(), 1u);
  EXPECT_EQ(to_str(m1.items[0][0]), "ccDD");
  EXPECT_EQ(m1.payload_bytes, 4u);
  EXPECT_EQ(m1.wall_ns, 1234u);
  EXPECT_TRUE(m1.warm_pool);

  exec::ExecReport red;
  red.folded = {of_str("11223344"), of_str("xxxxxxxx")};
  const exec::ExecReport m2 =
      member_report(red, /*chunk=*/2, /*index=*/2, /*count=*/4);
  EXPECT_EQ(to_str(m2.folded[0]), "33");
}

// ------------------------------------------------------ service: fusing

TEST(SvcFusion, PausedBacklogFusesIntoOneExactRun) {
  CollectiveService::Options opts;
  CollectiveService* svc = nullptr;
  std::vector<Request> reqs;
  std::vector<std::string> payloads;
  for (int i = 0; i < 6; ++i) {
    payloads.push_back("fused-payload-" + std::to_string(i));
    reqs.push_back(bcast_req(payloads.back()));
  }
  const std::vector<Response> rs = run_backlog(opts, std::move(reqs), &svc);
  std::set<std::uint32_t> indices;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const Response& r = rs[i];
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.fused, 6u);
    indices.insert(r.fused_index);
    // Byte-exactness: every proc ends with exactly this request's payload,
    // indistinguishable from an unfused run.
    for (ProcId p = 0; p < machine().P; ++p) {
      EXPECT_EQ(to_str(r.report.item_at(p, 0)), payloads[i]);
    }
    // One engine run, one analysis: the batch shares a single profile.
    EXPECT_EQ(r.profile, rs[0].profile);
    EXPECT_NE(r.profile, nullptr);
  }
  EXPECT_EQ(indices.size(), 6u) << "fused_index must be distinct per member";
  const auto st = svc->status();
  EXPECT_EQ(st.fused_requests, 6u);
  EXPECT_EQ(st.fused_batches, 1u);
  EXPECT_EQ(st.inflight, 0u);
  EXPECT_EQ(svc->tenant_counters(0).fused, 6u);
}

TEST(SvcFusion, CrossTenantSameShapeRequestsFuse) {
  CollectiveService::Options opts;
  opts.pools = 1;
  CollectiveService svc(machine(), opts);
  svc.pause();
  const TenantId a = svc.register_tenant({.name = "fusion-a"});
  const TenantId b = svc.register_tenant({.name = "fusion-b"});
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    SubmitResult sub = svc.submit(i % 2 == 0 ? a : b,
                                  bcast_req("xt-" + std::to_string(i)));
    ASSERT_TRUE(sub.accepted());
    futures.push_back(std::move(sub.response));
  }
  svc.resume();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.fused, 4u);
    EXPECT_EQ(to_str(r.report.item_at(1, 0)), "xt-" + std::to_string(i));
  }
  EXPECT_EQ(svc.tenant_counters(a).fused, 2u);
  EXPECT_EQ(svc.tenant_counters(b).fused, 2u);
}

TEST(SvcFusion, MixedShapesNeverFuse) {
  CollectiveService::Options opts;
  std::vector<Request> reqs;
  reqs.push_back(bcast_req("short"));
  reqs.push_back(bcast_req("rather-longer-payload"));
  reqs.push_back(generic_reduce_req(machine().P, 3));
  for (const Response& r : run_backlog(opts, std::move(reqs))) {
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.fused, 1u);
    EXPECT_EQ(r.fused_index, 0u);
  }
}

TEST(SvcFusion, InteractiveClassOptsOutByDefault) {
  CollectiveService::Options opts;
  std::vector<Request> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(bcast_req("same-shape", QoS::kInteractive));
  }
  for (const Response& r : run_backlog(opts, std::move(reqs))) {
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.fused, 1u) << "interactive must run unfused by default";
  }
}

TEST(SvcFusion, BatchCapIs32AndBestEffortFuses) {
  // 40 same-shape batch broadcasts and 4 same-shape best-effort ones
  // (a different size, so the two classes never share a key).  Batch
  // outranks best-effort: the batch backlog dispatches first as 32 + 8,
  // then the best-effort backlog as one run of 4.
  CollectiveService::Options opts;
  CollectiveService* svc = nullptr;
  std::vector<Request> reqs;
  std::vector<std::string> payloads;
  for (int i = 0; i < 40; ++i) {
    payloads.push_back("cap-" + std::string(i < 10 ? "0" : "") +
                       std::to_string(i));
    reqs.push_back(bcast_req(payloads.back()));
  }
  for (int i = 0; i < 4; ++i) {
    payloads.push_back("best-effort-" + std::to_string(i));
    reqs.push_back(bcast_req(payloads.back(), QoS::kBestEffort));
  }
  const std::vector<Response> rs = run_backlog(opts, std::move(reqs), &svc);
  ASSERT_EQ(rs.size(), 44u);
  std::set<std::uint32_t> first, second, best_effort;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const Response& r = rs[i];
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    for (ProcId p = 0; p < machine().P; ++p) {
      EXPECT_EQ(to_str(r.report.item_at(p, 0)), payloads[i]) << "request " << i;
    }
    if (i < 32) {
      EXPECT_EQ(r.fused, 32u) << "request " << i;
      first.insert(r.fused_index);
    } else if (i < 40) {
      EXPECT_EQ(r.fused, 8u) << "request " << i;
      second.insert(r.fused_index);
    } else {
      EXPECT_EQ(r.fused, 4u) << "request " << i;
      best_effort.insert(r.fused_index);
    }
  }
  EXPECT_EQ(first.size(), 32u);
  EXPECT_EQ(second.size(), 8u);
  EXPECT_EQ(best_effort.size(), 4u);
  const auto st = svc->status();
  EXPECT_EQ(st.fused_batches, 3u);
  EXPECT_EQ(st.fused_requests, 44u);
}

// ----------------------------------------- service: bitwise exactness

/// Runs `reqs` one at a time on an idle service: each runs alone on its
/// submitter, unfused.
std::vector<Response> run_one_at_a_time(std::vector<Request> reqs) {
  CollectiveService svc(machine(), CollectiveService::Options{});
  const TenantId t = svc.register_tenant({.name = "fusion-solo"});
  std::vector<Response> out;
  for (Request& r : reqs) {
    SubmitResult sub = svc.submit(t, std::move(r));
    EXPECT_TRUE(sub.accepted());
    out.push_back(sub.response.get());
  }
  return out;
}

/// Runs the same request mix fused (paused backlog) and unfused (one at a
/// time on an idle service) and demands bitwise-identical results.
template <typename MakeReq>
void expect_fused_matches_unfused(MakeReq make, int n,
                                  std::uint32_t expect_fused) {
  CollectiveService::Options fused_opts;
  std::vector<Request> fused_reqs, solo_reqs;
  for (int i = 0; i < n; ++i) {
    fused_reqs.push_back(make(i));
    solo_reqs.push_back(make(i));
  }
  const std::vector<Response> fused =
      run_backlog(fused_opts, std::move(fused_reqs));
  const std::vector<Response> solo = run_one_at_a_time(std::move(solo_reqs));
  ASSERT_EQ(fused.size(), solo.size());
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(fused[i].status, Status::kOk) << fused[i].error;
    ASSERT_EQ(solo[i].status, Status::kOk) << solo[i].error;
    EXPECT_EQ(fused[i].fused, expect_fused) << "request " << i;
    EXPECT_EQ(solo[i].fused, 1u);
    EXPECT_EQ(fused[i].report.items, solo[i].report.items) << "request " << i;
    EXPECT_EQ(fused[i].report.folded, solo[i].report.folded)
        << "request " << i;
  }
}

TEST(SvcFusion, FusedGenericReduceIsBitwiseIdenticalToUnfused) {
  // affine3 is non-commutative and non-associative: any fold-order drift
  // introduced by fusing would flip bytes here.
  expect_fused_matches_unfused(
      [](int i) {
        return generic_reduce_req(machine().P, static_cast<unsigned>(i));
      },
      5, 5u);
}

TEST(SvcFusion, FusedTypedReduceIsBitwiseIdenticalToUnfused) {
  expect_fused_matches_unfused(
      [](int i) { return typed_reduce_req(machine().P, 0.1 + i); }, 4, 4u);
}

TEST(SvcFusion, FusedAllgatherIsBitwiseIdenticalToUnfused) {
  expect_fused_matches_unfused(
      [](int i) {
        return allgather_req(machine().P, static_cast<unsigned>(i));
      },
      4, 4u);
}

TEST(SvcFusion, FusedBroadcastIsBitwiseIdenticalToUnfused) {
  expect_fused_matches_unfused(
      [](int i) { return bcast_req("bitwise-bcast-" + std::to_string(i)); },
      4, 4u);
}

// ------------------------------------------- service: segmented pipeline

/// `n` bytes of a position-dependent pattern, so a misplaced segment shows.
std::string patterned(std::size_t n, unsigned mul, unsigned add) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>((i * mul + add) & 0xff);
  }
  return s;
}

constexpr std::size_t kSeg = CollectiveService::Options::segment_bytes;

TEST(SvcFusion, SegmentedBroadcastIsBitwiseIdenticalToBulk) {
  // Five full segments and a short sixth.
  const std::string big = patterned(5 * kSeg + 1000, 131, 7);

  CollectiveService::Options seg_opts;
  seg_opts.segment_threshold = 4096;
  CollectiveService* svc = nullptr;
  std::vector<Request> reqs;
  reqs.push_back(bcast_req(big));
  const std::vector<Response> seg = run_backlog(seg_opts, std::move(reqs),
                                                &svc);
  ASSERT_EQ(seg[0].status, Status::kOk) << seg[0].error;
  EXPECT_EQ(seg[0].segments, 6u)
      << "ceil(size / segment_bytes), under the clamp";
  EXPECT_GE(svc->status().segmented_runs, 1u);

  CollectiveService::Options bulk_opts;
  bulk_opts.segment_threshold = 0;
  std::vector<Request> bulk_reqs;
  bulk_reqs.push_back(bcast_req(big));
  const std::vector<Response> bulk =
      run_backlog(bulk_opts, std::move(bulk_reqs));
  ASSERT_EQ(bulk[0].status, Status::kOk) << bulk[0].error;
  EXPECT_EQ(bulk[0].segments, 1u);

  for (ProcId p = 0; p < machine().P; ++p) {
    ASSERT_EQ(to_str(seg[0].report.item_at(p, 0)), big) << "proc " << p;
    EXPECT_EQ(seg[0].report.item_at(p, 0), bulk[0].report.item_at(p, 0));
  }
}

TEST(SvcFusion, SegmentedBroadcastFromNonZeroRoot) {
  const std::string big = patterned(3 * kSeg + 500, 17, 3);
  CollectiveService::Options opts;
  opts.segment_threshold = 2048;
  std::vector<Request> reqs;
  Request r = bcast_req(big);
  r.root = 2;
  reqs.push_back(std::move(r));
  const std::vector<Response> rs = run_backlog(opts, std::move(reqs));
  ASSERT_EQ(rs[0].status, Status::kOk) << rs[0].error;
  EXPECT_GT(rs[0].segments, 1u);
  for (ProcId p = 0; p < machine().P; ++p) {
    EXPECT_EQ(to_str(rs[0].report.item_at(p, 0)), big) << "proc " << p;
  }
}

TEST(SvcFusion, FusedAndSegmentedComposeExactly) {
  // Four one-segment requests fuse to four segments' worth, which crosses
  // the segment threshold none of them crosses alone: both layers of the
  // throughput path at once, still exact.
  std::vector<std::string> payloads;
  for (unsigned i = 0; i < 4; ++i) {
    payloads.push_back(patterned(kSeg, 13, i * 101));
  }
  CollectiveService::Options opts;
  opts.segment_threshold = 2 * kSeg;
  std::vector<Request> reqs;
  for (const std::string& s : payloads) reqs.push_back(bcast_req(s));
  const std::vector<Response> rs = run_backlog(opts, std::move(reqs));
  for (std::size_t i = 0; i < rs.size(); ++i) {
    ASSERT_EQ(rs[i].status, Status::kOk) << rs[i].error;
    EXPECT_EQ(rs[i].fused, 4u);
    EXPECT_GT(rs[i].segments, 1u);
    for (ProcId p = 0; p < machine().P; ++p) {
      EXPECT_EQ(to_str(rs[i].report.item_at(p, 0)), payloads[i]);
    }
  }
}

// --------------------------------------- service: shutdown and failure

TEST(SvcFusion, LoneRequestInAnIdleServiceDispatchesWithoutWaiting) {
  CollectiveService::Options opts;
  opts.pools = 1;
  CollectiveService svc(machine(), opts);
  const TenantId t = svc.register_tenant({.name = "fusion-lone"});
  // Queued on a paused service, so resume() (not the submitter) runs it:
  // resume drains on its calling thread, and a combiner never waits for a
  // sibling, so the batch-class lead has run when resume() returns.
  svc.pause();
  SubmitResult sub = svc.submit(t, bcast_req("lone"));
  ASSERT_TRUE(sub.accepted());
  EXPECT_FALSE(ready_now(sub.response));
  svc.resume();
  EXPECT_TRUE(ready_now(sub.response)) << "resume() drains on its caller";
  const Response r = sub.response.get();
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(r.fused, 1u);
  EXPECT_LT(r.queue_wait_ns, 500'000'000u)
      << "a lone request must not wait for siblings";
  for (ProcId p = 0; p < machine().P; ++p) {
    EXPECT_EQ(to_str(r.report.item_at(p, 0)), "lone");
  }
  EXPECT_EQ(svc.status().caller_runs, 0u);
}

TEST(SvcFusion, SiblingsQueuedBehindLentEnginesFuseIntoOneExactRun) {
  CollectiveService::Options opts;
  opts.pools = 1;
  CollectiveService svc(machine(), opts);
  const TenantId t =
      svc.register_tenant({.name = "fusion-behind", .queue_capacity = 16});
  Gate gate;
  std::thread holder([&] {
    SubmitResult sub =
        svc.submit(t, gated(generic_reduce_req(machine().P, 1), gate));
    ASSERT_TRUE(sub.accepted());
    EXPECT_EQ(sub.response.get().status, Status::kOk);
  });
  gate.wait_entered();
  // The one engine is lent to the holder's run: these submits queue and
  // return at once, and the holder's combiner, draining before it hands
  // the engine back, claims them into one run.
  std::vector<std::string> payloads;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 5; ++i) {
    payloads.push_back("behind-" + std::to_string(i));
    SubmitResult sub = svc.submit(t, bcast_req(payloads.back()));
    ASSERT_TRUE(sub.accepted());
    EXPECT_FALSE(ready_now(sub.response));
    futures.push_back(std::move(sub.response));
  }
  EXPECT_EQ(svc.queued(), 5u);
  gate.release();
  holder.join();
  std::set<std::uint32_t> indices;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(ready_now(futures[i])) << "the holder drains before returning";
    const Response r = futures[i].get();
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.fused, 5u);
    EXPECT_EQ(r.pool, 0);
    indices.insert(r.fused_index);
    for (ProcId p = 0; p < machine().P; ++p) {
      EXPECT_EQ(to_str(r.report.item_at(p, 0)), payloads[i]);
    }
  }
  EXPECT_EQ(indices.size(), 5u);
  const auto st = svc.status();
  EXPECT_EQ(st.fused_batches, 1u);
  EXPECT_EQ(st.fused_requests, 5u);
  EXPECT_EQ(st.caller_runs, 1u) << "only the holder ran its own request";
  EXPECT_EQ(st.inflight, 0u);
}

TEST(SvcFusion, DrainShutdownWithQueuedWorkFulfillsEveryPromiseExactlyOnce) {
  CollectiveService::Options opts;
  opts.pools = 1;
  CollectiveService svc(machine(), opts);
  const TenantId t =
      svc.register_tenant({.name = "fusion-drain", .queue_capacity = 16});
  Gate gate;
  std::thread holder([&] {
    SubmitResult sub =
        svc.submit(t, gated(generic_reduce_req(machine().P, 2), gate));
    ASSERT_TRUE(sub.accepted());
    EXPECT_EQ(sub.response.get().status, Status::kOk);
  });
  gate.wait_entered();
  // Queued behind the lent engine: a fusible pair, another shape and an
  // interactive request.
  const std::vector<std::pair<std::string, QoS>> queued = {
      {"drain-a", QoS::kBatch},
      {"drain-b", QoS::kBatch},
      {"drain-other-shape", QoS::kBestEffort},
      {"drain-i", QoS::kInteractive}};
  std::vector<std::future<Response>> futures;
  for (const auto& [payload, qos] : queued) {
    SubmitResult sub = svc.submit(t, bcast_req(payload, qos));
    ASSERT_TRUE(sub.accepted());
    futures.push_back(std::move(sub.response));
  }
  std::atomic<bool> returned{false};
  std::thread stopper([&] {
    svc.shutdown(/*drain=*/true);
    returned.store(true);
  });
  while (svc.accepting()) std::this_thread::yield();
  EXPECT_EQ(svc.submit(t, bcast_req("late")).status, Status::kShutdown);
  // No engine is free for shutdown to drain on: it waits while the
  // holder's combiner runs the backlog, then hands the engine back.
  EXPECT_FALSE(returned.load()) << "shutdown returned with an engine lent";
  gate.release();
  stopper.join();
  holder.join();
  std::set<std::uint64_t> seqs;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    seqs.insert(r.dispatch_seq);
    for (ProcId p = 0; p < machine().P; ++p) {
      EXPECT_EQ(to_str(r.report.item_at(p, 0)), queued[i].first);
    }
  }
  EXPECT_EQ(seqs.size(), futures.size());
  // Every admitted request completed exactly once: a second fulfilment
  // would have thrown in the combiner, a missed one left a count short.
  const auto c = svc.tenant_counters(t);
  EXPECT_EQ(c.admitted, 5u);
  EXPECT_EQ(c.completed, 5u);
  EXPECT_EQ(c.queue_depth, 0u);
  const auto st = svc.status();
  EXPECT_EQ(st.inflight, 0u);
  EXPECT_EQ(st.caller_runs, 1u);
  EXPECT_EQ(st.fused_batches, 1u);
}

TEST(SvcFusion, RankDeathFailsEveryFusedMemberConsistently) {
  // Rank 3 never executes an instruction: the fused run cannot complete,
  // the engine names the crashed rank, and the whole batch must fail
  // together — same error, no orphaned futures.
  fault::FaultSpec spec;
  spec.dead_rank = 3;
  spec.dead_after_instrs = 0;
  std::vector<Request> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(bcast_req("doomed-" + std::to_string(i)));
  }
  const std::vector<Response> rs = run_backlog(
      CollectiveService::Options{}, std::move(reqs), nullptr, spec);
  ASSERT_EQ(rs.size(), 4u);
  for (const Response& r : rs) {
    EXPECT_EQ(r.status, Status::kError);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.error, rs[0].error)
        << "every member must see the batch's one failure";
  }
}

}  // namespace
}  // namespace logpc::svc
