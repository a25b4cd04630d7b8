#include "bcast/kitem_buffered.hpp"

#include <gtest/gtest.h>

#include "sched/metrics.hpp"
#include "validate/checker.hpp"

namespace logpc::bcast {
namespace {

// Every field is 64-bit so the struct has no padding: gtest names each
// case by a byte dump of its parameter, and padding bytes would make those
// names depend on whatever the stack held.
struct Instance {
  Time P;
  Time L;
  Time k;
};

class BufferedSweep : public ::testing::TestWithParam<Instance> {};

// Theorem 3.8: in the modified model the single-sending lower bound
// B(P-1) + L + k - 1 is achieved exactly, for all k, L, P.
TEST_P(BufferedSweep, MeetsSingleSendingLowerBoundExactly) {
  const auto [P, L, k] = GetParam();
  const auto r =
      kitem_buffered(static_cast<int>(P), L, static_cast<int>(k));
  EXPECT_EQ(r.completion, r.bounds.single_sending_lower)
      << "P=" << P << " L=" << L << " k=" << k;
  const auto check =
      validate::check(r.schedule, {.buffered = true, .buffer_limit = 2});
  EXPECT_TRUE(check.ok()) << check.summary();
  EXPECT_TRUE(is_single_sending(r.schedule, 0));
  // The paper's footnote: buffer size 2 suffices.
  EXPECT_LE(r.max_buffer_depth, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BufferedSweep,
    ::testing::Values(
        Instance{2, 2, 3}, Instance{4, 1, 4}, Instance{5, 2, 6},
        Instance{8, 2, 4}, Instance{10, 1, 5}, Instance{10, 3, 8},
        Instance{13, 2, 5}, Instance{14, 3, 14}, Instance{17, 4, 6},
        Instance{21, 2, 7}, Instance{29, 2, 4}, Instance{30, 5, 3},
        Instance{9, 6, 2}, Instance{33, 1, 6}, Instance{12, 3, 4}));

TEST(KItemBuffered, Figure5Instance) {
  // L = 3, P - 1 = 13, k = 14: completion L + B(13) + k - 1 = 24, exactly
  // Figure 5's last column.
  const auto r = kitem_buffered(14, 3, 14);
  EXPECT_EQ(r.completion, 24);
  const auto check =
      validate::check(r.schedule, {.buffered = true, .buffer_limit = 2});
  EXPECT_TRUE(check.ok()) << check.summary();
}

TEST(KItemBuffered, StrictInstancesNeedNoBuffering) {
  // Where the strict plan exists (L = 3, exact P), no receive is delayed:
  // nothing is ever held across a cycle (depth counts items held past
  // their arrival instant).
  const auto r = kitem_buffered(10, 3, 5);
  EXPECT_EQ(r.max_buffer_depth, 0);
  for (const auto& op : r.schedule.sends()) {
    EXPECT_EQ(op.recv_start, kNever);
  }
}

TEST(KItemBuffered, L2InstancesUseDelayedItems) {
  // L = 2 strict is impossible (Theorem 3.4); the buffered schedule must
  // actually delay some receptions (Figure 5's boxed items).
  const auto r = kitem_buffered(9, 2, 6);
  EXPECT_EQ(r.completion, r.bounds.single_sending_lower);
  bool any_delayed = false;
  for (const auto& op : r.schedule.sends()) {
    any_delayed = any_delayed || op.recv_start != kNever;
  }
  EXPECT_TRUE(any_delayed);
}

TEST(KItemBuffered, DeliveryIsExactlyOnce) {
  const auto r = kitem_buffered(13, 2, 4);
  for (ItemId i = 0; i < 4; ++i) {
    const auto counts = receive_counts(r.schedule, i);
    for (ProcId p = 1; p < 13; ++p) {
      EXPECT_EQ(counts[static_cast<std::size_t>(p)], 1);
    }
  }
}

TEST(KItemBuffered, RejectsBadArguments) {
  EXPECT_THROW(kitem_buffered(1, 3, 2), std::invalid_argument);
  EXPECT_THROW(kitem_buffered(4, 0, 2), std::invalid_argument);
  EXPECT_THROW(kitem_buffered(4, 3, 0), std::invalid_argument);
}

}  // namespace
}  // namespace logpc::bcast
