#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "logp/time.hpp"

/// \file mailbox.hpp
/// The execution engine's only communication primitive: a bounded,
/// lock-free single-producer/single-consumer ring, one per *directed link*
/// (ordered processor pair) a compiled program uses.
///
/// The bound is the LogP network capacity constraint made physical: the
/// model admits at most ceil(L/g) messages in transit from (or to) any one
/// processor, so a mailbox of capacity ceil(L/g) can never reject a send
/// that a valid schedule performs — and a sender that runs far ahead of its
/// receiver blocks exactly where the model says the network would stall it.
/// Engine::run sizes every mailbox with Params::capacity().  A capacity of
/// zero is a caller bug — a machine whose network admits no message cannot
/// run any schedule — and is rejected loudly rather than silently clamped
/// to a different network than the model prescribes.
///
/// Concurrency: the classic Lamport ring.  The producer owns `tail_`, the
/// consumer owns `head_`; each publishes its index with a release store and
/// reads the other's with an acquire load, so the slot payload written
/// before a push is visible after the matching pop with no locks and no
/// waiting on either side (both operations are a handful of instructions).
///
/// Under fault injection the engine runs an acked-delivery protocol: each
/// data mailbox is paired with a reverse AckRing carrying the highest
/// sequence number the receiver has accepted, so a sender can retransmit a
/// dropped message after a timeout (see engine.cpp).

namespace logpc::exec {

/// One in-flight message: the item id plus a view of the sender's payload
/// bytes.  The pointer refers into the sending processor's buffers, which
/// the engine keeps immutable from push until the end of the run, so the
/// receiver may copy (or fold) from it directly — the release/acquire pair
/// on the ring index orders the payload writes before the read.  `seq` is
/// the 1-based per-link sequence number used by the acked-delivery
/// protocol; 0 when the run executes without reliability.
struct Message {
  ItemId item = 0;
  const std::byte* data = nullptr;
  std::size_t size = 0;
  std::uint64_t seq = 0;
};

/// Bounded lock-free SPSC ring over trivially-copyable slots.  Throws
/// std::invalid_argument on capacity == 0: every legal LogP machine admits
/// at least one in-flight message, so a zero capacity is always a bug at
/// the call site, not a configuration to round up.
///
/// Every ring records its high-water mark: a plain relaxed load +
/// conditional relaxed store per push — max_occupancy_ has a single
/// writer (the producer), so no CAS is needed.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) : cap_(capacity), slots_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument(
          "SpscRing: capacity must be >= 1 (the LogP capacity constraint "
          "ceil(L/g) is at least 1 on every valid machine)");
    }
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side.  False when the ring is full (capacity messages
  /// pushed and not yet popped) — the caller decides how to wait.
  bool try_push(const T& m) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    const std::size_t used = t - head_.load(std::memory_order_acquire);
    if (used == cap_) return false;
    slots_[t % cap_] = m;
    tail_.store(t + 1, std::memory_order_release);
    note_occupancy(used + 1);
    return true;
  }

  /// Consumer side.  False when empty.
  bool try_pop(T& out) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (tail_.load(std::memory_order_acquire) == h) return false;
    out = slots_[h % cap_];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side, bulk: appends up to `max` ready items to `out` and
  /// frees their slots with one release store — the receiver drain loop's
  /// primitive, amortizing the acquire/release pair over every message
  /// that is already queued.  Returns the number drained (0 when empty).
  std::size_t pop_bulk(std::vector<T>& out, std::size_t max) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    const std::size_t avail = tail_.load(std::memory_order_acquire) - h;
    const std::size_t n = std::min(avail, max);
    if (n == 0) return 0;
    for (std::size_t i = 0; i < n; ++i) out.push_back(slots_[(h + i) % cap_]);
    head_.store(h + n, std::memory_order_release);
    return n;
  }

  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// Messages currently queued (racy outside the producer/consumer pair;
  /// exact once both sides are quiescent).
  [[nodiscard]] std::size_t size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

  /// High-water mark of queued messages, as observed by the producer.
  /// The engine tests assert this never exceeds ceil(L/g): the executed
  /// schedule honored the model's capacity constraint.
  [[nodiscard]] std::size_t max_occupancy() const {
    return max_occupancy_.load(std::memory_order_relaxed);
  }

  /// Rewinds the high-water mark for warm reuse across runs, so each run's
  /// occupancy report covers that run alone.  Requires both sides
  /// quiescent (the engine calls it during single-threaded setup, after
  /// the previous run's epoch barrier); the cursors themselves are modular
  /// and never need rewinding.
  void reset_stats() noexcept {
    max_occupancy_.store(0, std::memory_order_relaxed);
  }

 private:
  void note_occupancy(std::size_t used) {
    // Single writer (the producer): a plain conditional store suffices.
    if (used > max_occupancy_.load(std::memory_order_relaxed)) {
      max_occupancy_.store(used, std::memory_order_relaxed);
    }
  }

  std::size_t cap_;
  std::vector<T> slots_;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< producer cursor
  alignas(64) std::atomic<std::size_t> max_occupancy_{0};
};

/// The per-link payload channel.
class SpscMailbox : public SpscRing<Message> {
 public:
  using SpscRing<Message>::SpscRing;
};

/// The per-link reverse acknowledgment channel: values are cumulative — the
/// highest per-link sequence number the receiver has accepted.
using AckRing = SpscRing<std::uint64_t>;

}  // namespace logpc::exec
