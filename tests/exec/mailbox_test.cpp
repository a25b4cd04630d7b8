#include "exec/mailbox.hpp"

#include <gtest/gtest.h>

namespace logpc::exec {
namespace {

Message msg(ItemId item) { return Message{item}; }

TEST(Mailbox, StartsEmpty) {
  Mailbox mb(4);
  EXPECT_EQ(mb.capacity(), 4u);
  EXPECT_EQ(mb.size(), 0u);
  Message out;
  EXPECT_FALSE(mb.try_pop(out));
}

/// Capacity 0 used to be silently clamped to 1, masking degenerate LogP
/// parameters (ceil(L/g) >= 1 on every valid machine).  Now it is rejected
/// loudly so the caller fixes the machine instead of relying on a ring
/// that the model says cannot exist.
TEST(Mailbox, ZeroCapacityIsRejected) {
  EXPECT_THROW(Mailbox mb(0), std::invalid_argument);
}

TEST(Mailbox, RejectsPushWhenFull) {
  Mailbox mb(3);
  EXPECT_TRUE(mb.try_push(msg(0)));
  EXPECT_TRUE(mb.try_push(msg(1)));
  EXPECT_TRUE(mb.try_push(msg(2)));
  EXPECT_FALSE(mb.try_push(msg(3)));
  Message out;
  ASSERT_TRUE(mb.try_pop(out));
  EXPECT_EQ(out.item, 0);
  EXPECT_TRUE(mb.try_push(msg(3)));  // slot freed
  EXPECT_FALSE(mb.try_push(msg(4)));
}

TEST(Mailbox, FifoOrder) {
  Mailbox mb(8);
  for (ItemId i = 0; i < 8; ++i) ASSERT_TRUE(mb.try_push(msg(i)));
  for (ItemId i = 0; i < 8; ++i) {
    Message out;
    ASSERT_TRUE(mb.try_pop(out));
    EXPECT_EQ(out.item, i);
  }
  EXPECT_EQ(mb.size(), 0u);
}

TEST(Mailbox, WrapsAroundManyTimes) {
  Mailbox mb(3);
  ItemId next_pop = 0;
  for (ItemId i = 0; i < 1000; ++i) {
    ASSERT_TRUE(mb.try_push(msg(i)));
    if (i % 2 == 1) {  // drain two every other push to force wrap patterns
      for (int d = 0; d < 2; ++d) {
        Message out;
        ASSERT_TRUE(mb.try_pop(out));
        EXPECT_EQ(out.item, next_pop++);
      }
    }
  }
}

TEST(Mailbox, MaxOccupancyTracksHighWater) {
  Mailbox mb(5);
  EXPECT_EQ(mb.max_occupancy(), 0u);
  ASSERT_TRUE(mb.try_push(msg(0)));
  ASSERT_TRUE(mb.try_push(msg(1)));
  EXPECT_EQ(mb.max_occupancy(), 2u);
  Message out;
  ASSERT_TRUE(mb.try_pop(out));
  ASSERT_TRUE(mb.try_push(msg(2)));
  EXPECT_EQ(mb.max_occupancy(), 2u);  // never exceeded 2 in flight
}

/// clear() is how a warm context and an aborted run drop leftovers: the
/// ring is empty and reusable from any cursor position, and the high-water
/// mark survives until reset_stats().
TEST(Mailbox, ClearEmptiesTheRingAndKeepsTheHighWaterMark) {
  Mailbox mb(3);
  ASSERT_TRUE(mb.try_push(msg(0)));
  ASSERT_TRUE(mb.try_push(msg(1)));
  Message out;
  ASSERT_TRUE(mb.try_pop(out));
  mb.clear();
  EXPECT_EQ(mb.size(), 0u);
  EXPECT_FALSE(mb.try_pop(out));
  EXPECT_EQ(mb.max_occupancy(), 2u);
  for (ItemId i = 0; i < 3; ++i) ASSERT_TRUE(mb.try_push(msg(i)));
  EXPECT_FALSE(mb.try_push(msg(3)));
  for (ItemId i = 0; i < 3; ++i) {
    ASSERT_TRUE(mb.try_pop(out));
    EXPECT_EQ(out.item, i);
  }
  mb.reset_stats();
  EXPECT_EQ(mb.max_occupancy(), 0u);
}

}  // namespace
}  // namespace logpc::exec
