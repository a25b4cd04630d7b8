#include "logp/fib.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace logpc {
namespace {

TEST(Fib, L3MatchesPaperSection3Example) {
  // Section 3.2's running example uses L = 3, P - 1 = 9 = f_7.
  const Fib fib(3);
  const Count expected[] = {1, 1, 1, 2, 3, 4, 6, 9, 13, 19, 28};
  for (Time i = 0; i < 11; ++i) {
    EXPECT_EQ(fib.f(i), expected[i]) << "i=" << i;
  }
}

TEST(Fib, L1DoublesEachStep) {
  const Fib fib(1);
  for (Time i = 0; i < 30; ++i) {
    EXPECT_EQ(fib.f(i), Count{1} << i) << "i=" << i;
  }
}

TEST(Fib, L2IsClassicalFibonacci) {
  const Fib fib(2);
  const Count expected[] = {1, 1, 2, 3, 5, 8, 13, 21, 34, 55};
  for (Time i = 0; i < 10; ++i) {
    EXPECT_EQ(fib.f(i), expected[i]) << "i=" << i;
  }
}

TEST(Fib, RejectsNonPositiveLatency) {
  EXPECT_THROW(Fib(0), std::invalid_argument);
  EXPECT_THROW(Fib(-2), std::invalid_argument);
}

TEST(Fib, NegativeIndexThrows) {
  const Fib fib(3);
  EXPECT_THROW((void)fib.f(-1), std::out_of_range);
}

// Fact 2.1: 1 + sum_{i=0..t} f_i = f_{t+L}, for every L and t.
class FibFact21 : public ::testing::TestWithParam<Time> {};

TEST_P(FibFact21, HoldsForAllSmallT) {
  const Fib fib(GetParam());
  for (Time t = 0; t <= 40; ++t) {
    EXPECT_EQ(sat_add(1, fib.sum(t)), fib.f(t + GetParam()))
        << "L=" << GetParam() << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLatencies, FibFact21,
                         ::testing::Values<Time>(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                                 10));

TEST(Fib, SumPrefixBasics) {
  const Fib fib(3);
  EXPECT_EQ(fib.sum(-1), 0u);
  EXPECT_EQ(fib.sum(0), 1u);
  EXPECT_EQ(fib.sum(6), 18u);  // 1+1+1+2+3+4+6 (used by k* in the paper)
}

TEST(Fib, BOfPInverseOfPOfT) {
  for (Time L = 1; L <= 8; ++L) {
    const Fib fib(L);
    for (Time t = 0; t <= 25; ++t) {
      const Count p = fib.P_of_t(t);
      // B(P(t)) <= t, and broadcasting to P(t)+1 processors needs > t.
      EXPECT_LE(fib.B_of_P(p), t);
      EXPECT_GT(fib.B_of_P(p + 1), t);
    }
  }
}

TEST(Fib, BOfPExamples) {
  const Fib fib(3);
  EXPECT_EQ(fib.B_of_P(1), 0);
  EXPECT_EQ(fib.B_of_P(9), 7);   // T9: B(9) = 7 in the running example
  EXPECT_EQ(fib.B_of_P(10), 8);
  EXPECT_EQ(fib.B_of_P(13), 8);  // Figure 5 uses B(13) = 8
  EXPECT_EQ(fib.B_of_P(41), 11); // Figure 3 uses P(n) = 41 -> n = 11
  EXPECT_THROW((void)fib.B_of_P(0), std::invalid_argument);
}

TEST(Fib, IsExactP) {
  const Fib fib(3);
  for (const Count p : {1u, 2u, 3u, 4u, 6u, 9u, 13u, 19u, 28u, 41u}) {
    EXPECT_TRUE(fib.is_exact_P(p)) << p;
  }
  for (const Count p : {5u, 7u, 8u, 10u, 12u, 14u, 20u, 40u, 42u}) {
    EXPECT_FALSE(fib.is_exact_P(p)) << p;
  }
  EXPECT_FALSE(fib.is_exact_P(0));
}

TEST(Fib, KStarMatchesSection3Example) {
  // P - 1 = 9, L = 3: n = 6 (f_6 = 6 < 9 <= f_7 = 9), sum = 18, k* = 2,
  // which is the value the paper uses for the k = 8 example of Figure 2.
  const Fib fib(3);
  EXPECT_EQ(fib.k_star(10), 2u);
}

TEST(Fib, KStarIsAtMostL) {
  // Section 3.1 asserts k* <= L.
  for (Time L = 1; L <= 10; ++L) {
    const Fib fib(L);
    for (Count P = 2; P <= 2000; ++P) {
      EXPECT_LE(fib.k_star(P), static_cast<Count>(L))
          << "L=" << L << " P=" << P;
    }
  }
}

TEST(Fib, KStarRejectsDegenerateP) {
  const Fib fib(3);
  EXPECT_THROW((void)fib.k_star(1), std::invalid_argument);
  EXPECT_THROW((void)fib.k_star(0), std::invalid_argument);
}

TEST(Fib, SaturatesInsteadOfOverflowing) {
  const Fib fib(1);
  EXPECT_EQ(fib.f(200), kSaturated);
  EXPECT_EQ(fib.sum(200), kSaturated);
  EXPECT_EQ(sat_add(kSaturated, kSaturated), kSaturated);
  EXPECT_EQ(sat_add(kSaturated - 1, 1), kSaturated);
}

TEST(Fib, MonotoneNondecreasing) {
  for (Time L = 1; L <= 10; ++L) {
    const Fib fib(L);
    for (Time i = 1; i <= 60; ++i) {
      EXPECT_GE(fib.f(i), fib.f(i - 1)) << "L=" << L << " i=" << i;
    }
  }
}

TEST(SharedFib, AgreesWithAPrivateInstance) {
  for (Time L = 1; L <= 6; ++L) {
    const Fib fib(L);
    for (Time i = 0; i <= 40; ++i) {
      EXPECT_EQ(shared_fib_f(L, i), fib.f(i));
      EXPECT_EQ(shared_fib_sum(L, i), fib.sum(i));
    }
    for (Count P = 1; P <= 64; ++P) {
      EXPECT_EQ(shared_B_of_P(L, P), fib.B_of_P(P));
      EXPECT_EQ(shared_is_exact_P(L, P), fib.is_exact_P(P));
      if (P >= 2) {
        EXPECT_EQ(shared_k_star(L, P), fib.k_star(P));
      }
    }
  }
}

TEST(Fib, BOfPGuardsTheSaturationClamp) {
  // f(t) clamps at kSaturated, so B_of_P(P) for any larger P used to scan
  // (and grow the memo) forever.  At the clamp itself the scan still
  // terminates — the first saturated index satisfies f(t) >= P.
  const Fib fib(3);
  EXPECT_NO_THROW((void)fib.B_of_P(kSaturated));
  EXPECT_THROW((void)fib.B_of_P(kSaturated + 1), std::overflow_error);
}

TEST(Fib, IsExactPGuardsTheSaturationClamp) {
  // At P == kSaturated "f hits P exactly" is unanswerable: the clamp is a
  // floor, not a value.
  const Fib fib(2);
  EXPECT_THROW((void)fib.is_exact_P(kSaturated), std::overflow_error);
  EXPECT_THROW((void)fib.is_exact_P(kSaturated + 1), std::overflow_error);
  EXPECT_NO_THROW((void)fib.is_exact_P(kSaturated - 1));
}

TEST(SharedFib, ClampGuardsCoverTheSharedAccessors) {
  EXPECT_NO_THROW((void)shared_B_of_P(3, kSaturated));
  EXPECT_THROW((void)shared_B_of_P(3, kSaturated + 1), std::overflow_error);
  EXPECT_THROW((void)shared_is_exact_P(3, kSaturated), std::overflow_error);
  EXPECT_THROW((void)shared_is_exact_P(3, kSaturated + 1),
               std::overflow_error);
}

TEST(SharedFib, ConcurrentQueriesAreConsistent) {
  // Many threads extending the same shared tables must agree with a
  // sequential reference (run under -DLOGPC_TSAN=ON for the race proof).
  const Fib reference(3);
  const Count want = reference.f(50);
  std::vector<std::thread> pool;
  std::atomic<int> mismatches{0};
  pool.reserve(8);
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&, t] {
      for (Time i = 0; i <= 50; ++i) {
        const Time idx = (t % 2 == 0) ? i : 50 - i;  // opposite directions
        if (shared_fib_f(3, idx) != reference.f(idx)) ++mismatches;
      }
      if (shared_fib_f(3, 50) != want) ++mismatches;
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace logpc
