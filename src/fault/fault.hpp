#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "logp/time.hpp"

/// \file fault.hpp
/// Deterministic fault injection for the execution engine.
///
/// A FaultSpec names the faults to inject into one engine run — message
/// delays, in-transit message drops, slow workers, one dead worker — and a
/// seed.  The Injector turns the spec into *pure decision functions*: every
/// decision is a hash of (seed, rank, link, sequence number, attempt), never
/// of wall-clock time or thread interleaving, so two runs of the same
/// program with the same spec inject exactly the same faults and produce
/// the same per-rank fault event log.
///
/// The injector only decides; the engine (exec/engine.cpp) applies the
/// faults and records a FaultEvent per injected fault into
/// ExecReport::fault_events.  Recovery — resending a dropped delivery,
/// failing the run on a crash-stopped rank, and re-planning around it —
/// lives in the engine and api::Communicator::run_broadcast_ft; this file
/// is deliberately mechanism-free so the fault model stays testable in
/// isolation.

namespace logpc::fault {

enum class FaultKind : std::uint8_t {
  kDelay,  ///< a send stalled before entering the network
  kDrop,   ///< a delivery discarded in transit (and resent)
  kSlow,   ///< a worker stalling before every instruction
  kDead,   ///< a worker stopped executing mid-stream
};

[[nodiscard]] std::string_view fault_kind_name(FaultKind k);

/// One injected fault, as logged by the engine.  `seq` is the message
/// sequence number for kDelay/kDrop and the instruction index for
/// kSlow/kDead.  Decisions are deterministic, so per-rank event sequences
/// compare equal across same-seed runs (the fault tests assert this).
struct FaultEvent {
  FaultKind kind = FaultKind::kDelay;
  ProcId rank = kNoProc;  ///< the rank the fault was injected at
  ProcId peer = kNoProc;  ///< the other end of the link (kNoProc for kSlow/kDead)
  std::uint64_t seq = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// What to inject.  Probabilities are per decision point; ranks refer to
/// the processor indices of the program being run (after a re-plan around a
/// failure, remap with remap_without()).
struct FaultSpec {
  std::uint64_t seed = 0;

  /// Each message's send is delayed `delay_ns` with probability
  /// `delay_prob` (a resent delivery is never delayed).
  double delay_prob = 0.0;
  std::uint64_t delay_ns = 0;

  /// Each delivery attempt is discarded in transit with probability
  /// `drop_prob`, up to `max_drops_per_message` consecutive discards of one
  /// message.  The bound keeps every run terminating: the engine resends a
  /// dropped delivery at once, so the first attempt past the bound gets
  /// through.
  double drop_prob = 0.0;
  int max_drops_per_message = 3;

  /// These ranks stall `slow_stall_ns` before every instruction.  A stall
  /// ends, so a slow rank never fails a run — slowness degrades latency,
  /// not membership.
  std::vector<ProcId> slow_ranks;
  std::uint64_t slow_stall_ns = 0;

  /// This rank executes `dead_after_instrs` instructions and then stops:
  /// no more sends or receives — a crash, as seen from every other rank.
  /// kNoProc disables.
  ProcId dead_rank = kNoProc;
  std::size_t dead_after_instrs = 0;
};

/// Rewrites `spec` for a program on one fewer rank: `removed` (in the
/// current program's rank space) leaves, ranks above it shift down by one.
/// A dead_rank equal to `removed` is cleared — that fault already fired.
/// Used by the recovery loop between a rank failure and the degraded
/// re-run.
[[nodiscard]] FaultSpec remap_without(const FaultSpec& spec, ProcId removed);

/// The decision oracle: stateless and thread-safe; every method is a pure
/// function of its arguments and the spec's seed.
class Injector {
 public:
  explicit Injector(FaultSpec spec);

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }

  /// Nanoseconds to stall the send of message `seq` on `link`; 0 = no
  /// delay.
  [[nodiscard]] std::uint64_t send_delay_ns(ProcId from, std::int32_t link,
                                            std::uint64_t seq) const;

  /// Whether the receiver discards the `attempt`-th arrival (1-based) of
  /// message `seq` on `link`.  Always false once `attempt` exceeds
  /// max_drops_per_message, so a resent delivery always gets through.
  [[nodiscard]] bool drop_delivery(ProcId to, std::int32_t link,
                                   std::uint64_t seq,
                                   std::uint64_t attempt) const;

  [[nodiscard]] bool is_slow(ProcId rank) const;
  [[nodiscard]] std::uint64_t slow_stall_ns() const {
    return spec_.slow_stall_ns;
  }

  /// Whether `rank` is dead by the time it would execute instruction
  /// `instr_index` (0-based position in its stream).
  [[nodiscard]] bool dies_at(ProcId rank, std::size_t instr_index) const {
    return rank == spec_.dead_rank && instr_index >= spec_.dead_after_instrs;
  }

 private:
  FaultSpec spec_;
  std::uint64_t slow_mask_ = 0;  ///< ranks < 64 fast path
};

}  // namespace logpc::fault
