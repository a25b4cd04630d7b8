#include "exec/mailbox.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

namespace logpc::exec {
namespace {

Message msg(ItemId item, const std::byte* data = nullptr,
            std::size_t size = 0) {
  return Message{item, data, size};
}

TEST(Mailbox, StartsEmpty) {
  SpscMailbox mb(4);
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
  EXPECT_THROW(SpscMailbox mb(0), std::invalid_argument);
  EXPECT_THROW(AckRing ar(0), std::invalid_argument);
}

TEST(AckRing, CarriesCumulativeSequenceNumbers) {
  AckRing ar(2);
  EXPECT_TRUE(ar.try_push(1));
  EXPECT_TRUE(ar.try_push(3));
  EXPECT_FALSE(ar.try_push(4));  // full — sender falls back to retransmit
  std::uint64_t seq = 0;
  ASSERT_TRUE(ar.try_pop(seq));
  EXPECT_EQ(seq, 1u);
  ASSERT_TRUE(ar.try_pop(seq));
  EXPECT_EQ(seq, 3u);
  EXPECT_FALSE(ar.try_pop(seq));
}

TEST(Mailbox, RejectsPushWhenFull) {
  SpscMailbox mb(3);
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
  SpscMailbox mb(8);
  for (ItemId i = 0; i < 8; ++i) ASSERT_TRUE(mb.try_push(msg(i)));
  for (ItemId i = 0; i < 8; ++i) {
    Message out;
    ASSERT_TRUE(mb.try_pop(out));
    EXPECT_EQ(out.item, i);
  }
  EXPECT_EQ(mb.size(), 0u);
}

TEST(Mailbox, WrapsAroundManyTimes) {
  SpscMailbox mb(3);
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
  SpscMailbox mb(5);
  EXPECT_EQ(mb.max_occupancy(), 0u);
  ASSERT_TRUE(mb.try_push(msg(0)));
  ASSERT_TRUE(mb.try_push(msg(1)));
  EXPECT_EQ(mb.max_occupancy(), 2u);
  Message out;
  ASSERT_TRUE(mb.try_pop(out));
  ASSERT_TRUE(mb.try_push(msg(2)));
  EXPECT_EQ(mb.max_occupancy(), 2u);  // never exceeded 2 in flight
}

/// The contract the engine relies on: payload bytes written before the
/// push are visible to the consumer after the pop, across real threads,
/// with item identity and FIFO order preserved under sustained traffic.
TEST(Mailbox, SpscStressPreservesOrderAndPayload) {
  constexpr int kMessages = 200000;
  constexpr std::size_t kCap = 4;
  SpscMailbox mb(kCap);

  // Stable payload storage: producer writes slot i before pushing message
  // i; the ring's release/acquire pair publishes it.
  std::vector<std::uint64_t> payload(kMessages);

  std::thread producer([&] {
    for (int i = 0; i < kMessages; ++i) {
      payload[static_cast<std::size_t>(i)] =
          0xABCD0000ull + static_cast<std::uint64_t>(i);
      const Message m{
          static_cast<ItemId>(i),
          reinterpret_cast<const std::byte*>(
              &payload[static_cast<std::size_t>(i)]),
          sizeof(std::uint64_t)};
      while (!mb.try_push(m)) std::this_thread::yield();
    }
  });

  std::uint64_t checksum = 0;
  for (int i = 0; i < kMessages; ++i) {
    Message out;
    while (!mb.try_pop(out)) std::this_thread::yield();
    ASSERT_EQ(out.item, i);
    ASSERT_EQ(out.size, sizeof(std::uint64_t));
    std::uint64_t v = 0;
    std::memcpy(&v, out.data, sizeof v);
    ASSERT_EQ(v, 0xABCD0000ull + static_cast<std::uint64_t>(i));
    checksum += v;
  }
  producer.join();
  EXPECT_LE(mb.max_occupancy(), kCap);
  EXPECT_NE(checksum, 0u);
}

TEST(Mailbox, PopBulkDrainsUpToMaxInFifoOrder) {
  SpscMailbox mb(8);
  for (ItemId i = 0; i < 6; ++i) ASSERT_TRUE(mb.try_push(msg(i)));
  std::vector<Message> out;
  EXPECT_EQ(mb.pop_bulk(out, 4), 4u);
  ASSERT_EQ(out.size(), 4u);
  for (ItemId i = 0; i < 4; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)].item, i);
  // Appends, never clears: the engine reuses one pending buffer.
  EXPECT_EQ(mb.pop_bulk(out, 10), 2u);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[4].item, 4);
  EXPECT_EQ(out[5].item, 5);
  EXPECT_EQ(mb.pop_bulk(out, 1), 0u);  // empty
  EXPECT_EQ(mb.size(), 0u);
}

TEST(Mailbox, BulkAndSingleOperationsInterleave) {
  SpscMailbox mb(3);
  std::vector<Message> out;
  ItemId next = 0, want = 0;
  for (int round = 0; round < 500; ++round) {
    const std::size_t pushed = static_cast<std::size_t>(round % 3) + 1;
    for (std::size_t i = 0; i < pushed && mb.try_push(msg(next)); ++i) {
      ++next;
    }
    if (round % 2 == 0) {
      Message m;
      if (mb.try_pop(m)) {
        EXPECT_EQ(m.item, want++);
      }
    } else {
      out.clear();
      const std::size_t n = mb.pop_bulk(out, 2);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i].item, want++);
    }
  }
  // Drain the remainder; the interleaving never reordered or lost anything.
  out.clear();
  while (mb.pop_bulk(out, 8) > 0) {
  }
  for (const Message& m : out) EXPECT_EQ(m.item, want++);
  EXPECT_EQ(want, next);
}

/// Cross-thread bulk stress: a producer pushing randomized bursts one
/// message at a time against a consumer draining randomized bulk sizes must
/// preserve order, payload visibility and the capacity bound — the same
/// contract as the single-message stress test, through the amortized drain.
TEST(Mailbox, BulkSpscStressPreservesOrderAndPayload) {
  constexpr int kMessages = 200000;
  constexpr std::size_t kCap = 6;
  SpscMailbox mb(kCap);
  std::vector<std::uint64_t> payload(kMessages);

  std::thread producer([&] {
    std::uint32_t state = 12345;  // cheap deterministic LCG
    int sent = 0;
    std::vector<Message> batch;
    while (sent < kMessages) {
      state = state * 1664525u + 1013904223u;
      const int want = 1 + static_cast<int>(state % 4);
      batch.clear();
      for (int i = 0; i < want && sent + i < kMessages; ++i) {
        const int id = sent + i;
        payload[static_cast<std::size_t>(id)] =
            0x5EED0000ull + static_cast<std::uint64_t>(id);
        batch.push_back(Message{
            static_cast<ItemId>(id),
            reinterpret_cast<const std::byte*>(
                &payload[static_cast<std::size_t>(id)]),
            sizeof(std::uint64_t)});
      }
      for (const Message& m : batch) {
        while (!mb.try_push(m)) std::this_thread::yield();
      }
      sent += static_cast<int>(batch.size());
    }
  });

  std::uint32_t state = 99;
  int received = 0;
  std::vector<Message> got;
  while (received < kMessages) {
    state = state * 1664525u + 1013904223u;
    const std::size_t want = 1 + state % 5;
    got.clear();
    const std::size_t n = mb.pop_bulk(got, want);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i].item, received);
      std::uint64_t v = 0;
      std::memcpy(&v, got[i].data, sizeof v);
      ASSERT_EQ(v, 0x5EED0000ull + static_cast<std::uint64_t>(received));
      ++received;
    }
  }
  producer.join();
  EXPECT_LE(mb.max_occupancy(), kCap);
}

}  // namespace
}  // namespace logpc::exec
