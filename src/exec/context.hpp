#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/mailbox.hpp"

/// \file context.hpp
/// The per-run state of an Engine: mailboxes, ack rings, drain queues,
/// one resumable cursor per rank, and the kMove slot tables.
///
/// A RunContext is owned by its Engine (one per engine, guarded by the
/// engine's run mutex — runs on one engine serialize, so the context never
/// sees two runs at once) and is *re-prepared* instead of rebuilt:
/// prepare() compares the requested RunShape against the previous run's
/// and, on a match, merely drains leftover ring contents and rewinds
/// high-water marks — zero ring allocations on the warm path.  A shape
/// change (different link count, capacity, reliability mode or processor
/// count) rebuilds the mismatched resources once and stays warm from then
/// on.  kMove result buffers are not context state: they are the run's
/// ExecReport::items, handed to the caller.
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
  bool reliable = false;     ///< acked delivery: ack rings
  std::size_t procs = 0;     ///< logical processors (cursors)

  friend bool operator==(const RunShape&, const RunShape&) = default;
};

/// Where a rank's cursor stands inside its current instruction.  The
/// fault-free path uses kFetch, kStart, kPush and kPop; the others belong
/// to acked delivery (runs with a fault::Injector).
enum class Phase : std::uint8_t {
  kFetch,    ///< at an instruction boundary
  kSlow,     ///< sitting out a slow-rank stall before the instruction
  kStart,    ///< instruction fetched, op not begun
  kDelay,    ///< send: sitting out an injected delay before the push
  kPush,     ///< send: waiting for room in the link's mailbox
  kAck,      ///< acked send: pushed, waiting for the cumulative ack
  kPop,      ///< recv: waiting for a message
  kAckBack,  ///< acked recv: accepted, waiting for room in the ack ring
  kDone,     ///< stream finished
  kDead,     ///< crash-stopped by the injector
};

/// One rank's resumable position in its instruction stream: everything a
/// blocked op needs to pick up where it stopped when the engine steps the
/// rank again.
struct Cursor {
  using Clock = std::chrono::steady_clock;

  std::size_t pc = 0;  ///< index of the current instruction
  Phase phase = Phase::kFetch;
  bool queued = false;          ///< in the engine's runnable list
  std::uint64_t start_ns = 0;   ///< the pending op's start stamp
  std::uint64_t xfer_ns = 0;    ///< the pending op's transfer stamp
  Message m;                    ///< the pending send's / popped message
  bool acc_have = false;        ///< kFold/kSum: accumulator assigned
  std::size_t operand_pos = 0;  ///< kSum: next local operand

  // Acked delivery only (beats moves on every run, but only the acked
  // path's failure detector reads it).
  std::uint64_t beats = 0;        ///< heartbeat: bumped on every visit
  Clock::time_point not_before;   ///< kSlow / kDelay: stall end
  Clock::time_point next_retx;    ///< kAck: next retransmit
  std::chrono::microseconds backoff{0};  ///< kAck: current retransmit wait
  int retries_left = 0;           ///< kAck: backoff ramp steps left
  std::uint64_t peer_beats = 0;   ///< the blocking peer's last heartbeat
  Clock::time_point peer_changed; ///< when peer_beats last moved
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
  /// whole context was reused warm (no ring or queue allocation); false
  /// when any resource had to be (re)built.  Cursors start at their
  /// streams' first instruction either way.
  bool prepare(const RunShape& shape);

  [[nodiscard]] const RunShape& shape() const { return shape_; }

  // Run resources.  The engine indexes these directly; the fields are
  // engine-internal state that lives here only so it can stay warm.
  std::vector<std::unique_ptr<SpscMailbox>> mailboxes;  ///< [link]
  std::vector<PendingQ> pending;                        ///< [link]

  // Reliable-mode state, one slot per link: seq/acked belong to the
  // producer, accepted/attempts to the consumer.
  std::vector<std::unique_ptr<AckRing>> acks;  ///< [link]
  std::vector<std::uint64_t> send_seq;   ///< producer: last seq pushed
  std::vector<std::uint64_t> acked;      ///< producer: highest acked seen
  std::vector<std::uint64_t> accepted;   ///< consumer: highest seq accepted
  std::vector<std::uint64_t> attempts;   ///< consumer: arrivals of expected

  std::vector<Cursor> cursors;              ///< [proc]
  std::vector<std::uint32_t> ready, next;  ///< runnable ranks, this/next sweep

  // kMove slot tables, sized per run (they depend on num_items, not the
  // shape) but heap-warm across runs.
  std::vector<Slot> slots;      ///< [proc * num_items]
  std::vector<char> slot_used;  ///< setup scratch: slots the plan touches

 private:
  RunShape shape_{};
  bool prepared_ = false;
};

}  // namespace logpc::exec
