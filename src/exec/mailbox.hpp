#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "logp/time.hpp"

/// \file mailbox.hpp
/// The execution engine's only communication primitive: a bounded FIFO
/// ring, one per *directed link* (ordered processor pair) a compiled
/// program uses.
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
/// The engine steps every rank on one thread, so a ring is plain memory:
/// no atomics, no fences, no padding.  A run owns its engine's rings
/// exclusively (Engine::run serializes on the engine's run mutex).
/// Injected faults never add a channel: a dropped delivery is resent at
/// the pop (see engine.cpp).

namespace logpc::exec {

/// One in-flight message: the item id plus a view of the sender's payload
/// bytes.  The pointer refers into the sending processor's buffers, which
/// the engine keeps immutable from push until the end of the run, so the
/// receiver may copy (or fold) from it directly.  `send_event` is the
/// index in the sender's ExecReport::events of the send that pushed it, so
/// the receive that accepts it records its cause (ExecEvent::match).
/// `seq` is the 1-based per-link sequence number the fault injector's
/// decisions key on; 0 in a run without an injector.
struct Message {
  ItemId item = 0;
  std::uint32_t send_event = 0;
  const std::byte* data = nullptr;
  std::size_t size = 0;
  std::uint64_t seq = 0;
};

/// Bounded FIFO ring over trivially-copyable slots.  Throws
/// std::invalid_argument on capacity == 0: every legal LogP machine admits
/// at least one in-flight message, so a zero capacity is always a bug at
/// the call site, not a configuration to round up.  Every ring records its
/// high-water mark.
template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : cap_(capacity), slots_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument(
          "Ring: capacity must be >= 1 (the LogP capacity constraint "
          "ceil(L/g) is at least 1 on every valid machine)");
    }
  }

  /// False when the ring is full (capacity messages pushed and not yet
  /// popped) — the caller decides how to wait.
  bool try_push(const T& m) {
    if (size_ == cap_) return false;
    slots_[tail_] = m;
    tail_ = tail_ + 1 == cap_ ? 0 : tail_ + 1;
    if (++size_ > max_occupancy_) max_occupancy_ = size_;
    return true;
  }

  /// False when empty.
  bool try_pop(T& out) {
    if (size_ == 0) return false;
    out = slots_[head_];
    head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
    --size_;
    return true;
  }

  /// Drops every queued entry.
  void clear() noexcept {
    head_ = tail_ = size_ = 0;
  }

  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// Messages currently queued.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// High-water mark of queued messages.  The engine tests assert this
  /// never exceeds ceil(L/g): the executed schedule honored the model's
  /// capacity constraint.
  [[nodiscard]] std::size_t max_occupancy() const { return max_occupancy_; }

  /// Rewinds the high-water mark for warm reuse across runs, so each run's
  /// occupancy report covers that run alone.
  void reset_stats() noexcept { max_occupancy_ = 0; }

 private:
  std::size_t cap_;
  std::vector<T> slots_;
  std::size_t head_ = 0;  ///< next slot to pop
  std::size_t tail_ = 0;  ///< next slot to fill
  std::size_t size_ = 0;
  std::size_t max_occupancy_ = 0;
};

/// The per-link payload channel.
using Mailbox = Ring<Message>;

}  // namespace logpc::exec
