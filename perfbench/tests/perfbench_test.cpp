#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

Samples one_to(int n) {
  Samples s;
  for (int i = n; i >= 1; --i) s.add(i);  // unsorted on purpose
  return s;
}

TEST(Percentile, NearestRank) {
  const Samples s = one_to(1000);
  EXPECT_EQ(s.at(0.5).value, 500);
  EXPECT_EQ(s.at(0.99).value, 990);
  EXPECT_EQ(s.at(0.999).value, 999);
  EXPECT_EQ(s.at(1.0).value, 1000);
  EXPECT_EQ(one_to(1).at(0.5).value, 1);
}

TEST(Percentile, ReportableOnlyWithTenSamplesBeyond) {
  const Samples s1000 = one_to(1000);
  EXPECT_EQ(s1000.at(0.99).beyond, 10u);
  EXPECT_TRUE(s1000.at(0.99).reportable);
  EXPECT_FALSE(s1000.at(0.999).reportable);  // 1 beyond
  EXPECT_FALSE(one_to(999).at(0.99).reportable);
  EXPECT_TRUE(one_to(20).at(0.5).reportable);
  EXPECT_FALSE(one_to(19).at(0.5).reportable);
  // The floor-index percentile this replaces would print a p999 here.
  EXPECT_FALSE(one_to(3200).at(0.999).reportable);
}

TEST(Percentile, DescribePrintsCountAndHidesThinTails) {
  EXPECT_EQ(one_to(1000).describe(), "p50=500 p99=990 (n=1000)");
  EXPECT_EQ(one_to(100).describe(), "p50=50 p99=n/a (n=100)");
  EXPECT_EQ(Samples{}.describe(), "p50=n/a p99=n/a (n=0)");
}

TEST(Percentile, AppendMerges) {
  Samples a = one_to(10);
  a.append(one_to(10));
  EXPECT_EQ(a.count(), 20u);
  EXPECT_EQ(a.median(), 5);
  EXPECT_EQ(a.at(1.0).value, 10);
}

std::vector<RequestSpec> draw(Workload w, std::uint64_t seed,
                              std::uint32_t caller, int n) {
  RequestStream s(w, seed, caller);
  std::vector<RequestSpec> out;
  for (int i = 0; i < n; ++i) out.push_back(s.next());
  return out;
}

TEST(SeedDeterminism, RequestSequence) {
  for (const Workload w :
       {Workload::kSoloSmall, Workload::kFusedMix, Workload::kLargeBcast}) {
    EXPECT_EQ(draw(w, 7, 0, 500), draw(w, 7, 0, 500));
    EXPECT_NE(draw(w, 7, 3, 500), draw(w, 7, 4, 500));
    if (w != Workload::kLargeBcast) {  // one shape: variants differ
      EXPECT_NE(draw(w, 7, 0, 500), draw(w, 8, 0, 500));
    }
  }
  EXPECT_NE(draw(Workload::kLargeBcast, 7, 0, 500),
            draw(Workload::kLargeBcast, 8, 0, 500));
}

TEST(SeedDeterminism, RequestMixMatchesShares) {
  const std::vector<RequestSpec> r = draw(Workload::kSoloSmall, 1, 0, 20000);
  int reduce = 0;
  for (const RequestSpec& s : r) reduce += s.shape == Shape::kReduce256;
  EXPECT_NEAR(reduce / 20000.0, 0.20, 0.02);
}

TEST(SeedDeterminism, Payloads) {
  const InputPool a(Workload::kFusedMix, 11), b(Workload::kFusedMix, 11),
      c(Workload::kFusedMix, 12);
  for (const Shape s : {Shape::kBcast4KBatch, Shape::kReduce256,
                        Shape::kAllgather64}) {
    const RequestSpec r{s, 3};
    EXPECT_EQ(a.at(r).payload, b.at(r).payload);
    EXPECT_EQ(a.at(r).values, b.at(r).values);
    EXPECT_TRUE(a.at(r).payload != c.at(r).payload ||
                a.at(r).values != c.at(r).values);
  }
}

TEST(SeedDeterminism, SweepKeys) {
  const auto a = sweep_keys(5, 400), b = sweep_keys(5, 400),
             c = sweep_keys(6, 400);
  ASSERT_EQ(a.size(), 400u);
  int differ = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    differ += a[i].key == c[i].key ? 0 : 1;
  }
  EXPECT_GT(differ, 300);
}

TEST(SweepKeys, CoverTheStatedRanges) {
  int families[kNumFamilies] = {};
  int max_bcast_p = 0;
  for (const SweepKey& k : sweep_keys(9, 1200)) {
    ++families[static_cast<int>(k.family)];
    EXPECT_GE(k.machine.P, 8);
    EXPECT_EQ(k.compile, k.machine.P <= kCompileMaxP);
    switch (k.family) {
      case Family::kBcast:
      case Family::kReduce:
        EXPECT_LE(k.machine.P, 1 << 20);
        max_bcast_p = std::max(max_bcast_p, k.machine.P);
        break;
      case Family::kKItem:  // clear of the known build cliffs
        EXPECT_LE(k.machine.P, 64);
        EXPECT_GE(k.machine.L + 2 * k.machine.o, 4);
        EXPECT_LE(k.machine.L + 2 * k.machine.o, 9);
        EXPECT_GE(k.k, 2);
        EXPECT_LE(k.k, 16);
        break;
      case Family::kAllgather:
        EXPECT_LE(k.machine.P, 128);
        break;
      case Family::kSummation:
        EXPECT_LE(k.machine.P, 64);
        EXPECT_LE(k.k, 4096);
        EXPECT_GE(k.machine.g, k.machine.o + 1);
        break;
    }
  }
  EXPECT_GT(max_bcast_p, 1 << 19);
  for (const int n : families) EXPECT_GT(n, 100);
}

}  // namespace
}  // namespace perfbench
