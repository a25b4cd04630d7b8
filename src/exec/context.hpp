#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/mailbox.hpp"

/// \file context.hpp
/// The per-run half of the Engine split: everything a single execution
/// needs that is *not* the worker threads — mailboxes, ack rings, drain
/// queues, heartbeat slots and the kMove slot tables.
///
/// Before this split, Engine::run allocated all of it on the stack of
/// every call: one heap allocation per link for the data ring, another per
/// link for the ack ring, fresh scratch vectors.  A service dispatching
/// back-to-back collectives onto a persistent pool pays that setup on
/// every request even though consecutive runs of the same plan shape need
/// byte-for-byte identical resources.
///
/// A RunContext is owned by its Engine (one per engine, guarded by the
/// engine's run mutex — runs on one engine serialize, so the context never
/// sees two runs at once) and is *re-prepared* instead of rebuilt:
/// prepare() compares the requested RunShape against the previous run's
/// and, on a match, merely drains leftover ring contents, rewinds
/// high-water marks and resets heartbeats — zero allocations on the warm
/// path.  A shape change (different link count, capacity, reliability mode
/// or processor count) rebuilds the mismatched resources once and stays
/// warm from then on.  kMove result buffers are not context state: they
/// are the run's ExecReport::items, handed to the caller.
///
/// ExecReport::warm_buffers reports which side of that branch a run took,
/// and the service's engine pools regression-assert it stays true under
/// sustained same-shape traffic.

namespace logpc::exec {

/// The resource signature of one run: two runs with equal shapes can share
/// every context resource without reallocation.
struct RunShape {
  std::size_t links = 0;     ///< directed links with traffic (mailboxes)
  std::size_t capacity = 0;  ///< per-link ring bound, ceil(L/g)
  bool reliable = false;     ///< acked delivery: ack rings + heartbeats
  std::size_t procs = 0;     ///< logical processors (heartbeat slots)

  friend bool operator==(const RunShape&, const RunShape&) = default;
};

/// One heartbeat counter per logical processor, cache-line padded.  A live
/// worker bumps its own slot on every instruction and every spin-wait
/// tick; the failure detector accuses a rank dead only after its slot has
/// stayed frozen through a full suspicion window.
struct alignas(64) Heartbeat {
  std::atomic<std::uint64_t> v{0};
};

/// Consumer-side drain buffer, one per link (each link has exactly one
/// consumer).  pop_bulk refills it with every message the stream is about
/// to consume back-to-back (Instr::chain), amortizing the ring's
/// acquire/release pair across the batch.
struct PendingQ {
  std::vector<Message> buf;
  std::size_t head = 0;
};

/// One (processor, item) kMove slot: the range of the processor's
/// ExecReport::items buffer the item is seeded or delivered into.
struct Slot {
  std::byte* data = nullptr;
  std::size_t size = 0;
};

class RunContext {
 public:
  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Readies every resource for a run of `shape`.  Returns true when the
  /// whole context was reused warm (no ring, heartbeat or queue
  /// allocation); false when any resource had to be (re)built.  Must be
  /// called single-threaded, before workers dispatch.
  bool prepare(const RunShape& shape);

  [[nodiscard]] const RunShape& shape() const { return shape_; }

  // Run resources.  Engine workers index these directly; the fields are
  // engine-internal state that lives here only so it can stay warm.
  std::vector<std::unique_ptr<SpscMailbox>> mailboxes;  ///< [link]
  std::vector<PendingQ> pending;                        ///< [link]

  // Reliable-mode state, one slot per link.  Each slot is touched by only
  // one side of its link (seq/acked by the producer, accepted/attempts by
  // the consumer), so plain vectors are race-free.
  std::vector<std::unique_ptr<AckRing>> acks;  ///< [link]
  std::vector<std::uint64_t> send_seq;   ///< producer: last seq pushed
  std::vector<std::uint64_t> acked;      ///< producer: highest acked seen
  std::vector<std::uint64_t> accepted;   ///< consumer: highest seq accepted
  std::vector<std::uint64_t> attempts;   ///< consumer: arrivals of expected
  std::unique_ptr<Heartbeat[]> hearts;   ///< [proc], reliable mode only

  // kMove slot tables, sized per run (they depend on num_items, not the
  // shape) but heap-warm across runs.
  std::vector<Slot> slots;      ///< [proc * num_items]
  std::vector<char> slot_used;  ///< setup scratch: slots the plan touches

 private:
  RunShape shape_{};
  bool prepared_ = false;
};

}  // namespace logpc::exec
