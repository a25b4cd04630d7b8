#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/mailbox.hpp"

/// \file context.hpp
/// The per-run state of an Engine: mailboxes, one resumable cursor per
/// rank, and the kMove slot tables.
///
/// A RunContext is owned by its Engine (one per engine, guarded by the
/// engine's run mutex — runs on one engine serialize, so the context never
/// sees two runs at once) and is *re-prepared* instead of rebuilt:
/// prepare() compares the requested RunShape against the previous run's
/// and, on a match, merely clears leftover ring contents and rewinds
/// high-water marks — zero ring allocations on the warm path.  A shape
/// change (different link count, capacity or processor count) rebuilds
/// the mismatched resources once and stays warm from then on.  kMove
/// result buffers are not context state: they are the run's
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
  std::size_t procs = 0;     ///< logical processors (cursors)

  friend bool operator==(const RunShape&, const RunShape&) = default;
};

/// Where a rank's cursor stands inside its current instruction.  The
/// fault-free path uses kFetch, kStart, kPush and kPop; kSlow, kDelay and
/// kDead occur only in runs with a fault::Injector.
enum class Phase : std::uint8_t {
  kFetch,  ///< at an instruction boundary
  kSlow,   ///< sitting out a slow-rank stall before the instruction
  kStart,  ///< instruction fetched, op not begun
  kDelay,  ///< send: sitting out an injected delay before the push
  kPush,   ///< send: waiting for room in the link's mailbox
  kPop,    ///< recv: waiting for a message
  kDone,   ///< stream finished
  kDead,   ///< crash-stopped by the injector
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
  Clock::time_point not_before;  ///< kSlow / kDelay: stall end
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
  /// whole context was reused warm (no ring allocation); false
  /// when any resource had to be (re)built.  Cursors start at their
  /// streams' first instruction either way.
  bool prepare(const RunShape& shape);

  [[nodiscard]] const RunShape& shape() const { return shape_; }

  // Run resources.  The engine indexes these directly; the fields are
  // engine-internal state that lives here only so it can stay warm.
  std::vector<Mailbox> mailboxes;  ///< [link]
  /// Runs with a fault::Injector: messages sent so far on each link, so
  /// each message's `seq` (what the injector's decisions key on).
  std::vector<std::uint64_t> send_seq;  ///< [link]

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
