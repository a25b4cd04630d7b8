#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exec/engine.hpp"

/// \file critical_path.hpp
/// Run analysis: where did a collective's wall time actually go, and why
/// did it diverge from the paper's predicted makespan?
///
/// The engine already records one timestamped event per send/recv on every
/// rank (ExecReport::events, stream-ordered and non-decreasing in
/// start_ns), and each receive names the send whose message it accepted
/// (ExecEvent::match, recorded at the pop).  Those logs *are* the run's
/// causal DAG — wire edges from each receive to its named send, stream
/// edges between a rank's consecutive events — and analyze() is their only
/// reader.  One walk over every rank's events builds the decomposition and
/// the fit; a second, backward walk follows the critical path:
///
///  1. **Decomposition.**  Each rank's span [first event start, last event
///     end] is partitioned *exactly* into five components:
///
///       send-overhead  send begin -> send complete (the model's o on the
///                      sending side, including capacity backpressure; a
///                      send completes at its push, so nothing follows it)
///       latency-wait   recv begin -> payload arrived (the wire's L plus
///                      any sender lateness)
///       recv-overhead  payload arrived -> stored (move-mode memcpy: the
///                      model's o on the receiving side)
///       fold           payload arrived -> folded (fold/sum-mode receive
///                      combining), plus — in kSum mode — the gaps between
///                      events, where kCombineLocal folds operands without
///                      emitting a timed event
///       gap-stall      everything between consecutive events that is not
///                      kSum local combining: scheduling noise, planned
///                      idle slots, g-spacing the stream did not overlap
///
///     The identity `span == sum(components)` holds by construction —
///     every nanosecond of the span lands in exactly one bucket — which is
///     what the profiler tests assert.
///
///  2. **Fit.**  The same walk fits effective (L, o, g) in nanoseconds:
///     o from each send's begin -> push and each receive's arrival ->
///     stored, L from the matched send's push to the receive's arrival, g
///     from the spacing of a rank's consecutive send begins (clamped to
///     g >= o).
///
///  3. **Critical path.**  Starting from the globally last-finishing
///     event, repeatedly step to the *gating* predecessor: for a receive
///     whose payload arrived after the rank started waiting, the matched
///     send on the peer (a wire edge); otherwise the previous event on the
///     same rank (a stream edge).  The result is the causal chain that
///     determined the makespan — by construction it ends at the
///     last-finishing rank (the straggler) and bottoms out at some rank's
///     first event.
///
/// The *model residual* closes the predicted-vs-measured loop the paper's
/// methodology implies: a least-squares scale maps the plan machine's
/// (L, o, g) cycles onto the fitted nanoseconds, and the residual is
/// (measured critical path - scaled predicted makespan) / predicted.  A
/// run that executed the schedule as the model prices it has a residual
/// near zero; stragglers, contention or a mis-fitted machine push it up.

namespace logpc::obs {

/// One component of the per-rank time decomposition.
enum class Component : std::uint8_t {
  kSendOverhead,  ///< send begin -> send complete
  kLatencyWait,   ///< recv begin -> payload arrived
  kRecvOverhead,  ///< payload arrived -> stored (move mode)
  kFold,          ///< payload arrived -> folded + kSum local-combine gaps
  kGapStall,      ///< inter-event idle not attributable to local folding
};

inline constexpr std::size_t kComponents = 5;

[[nodiscard]] const char* component_name(Component c) noexcept;

/// One contiguous interval of a rank's timeline, tagged with the component
/// it belongs to.  Phases partition each rank's span; the
/// Chrome-trace exporter renders them as color-coded per-rank tracks.
struct Phase {
  Component component = Component::kGapStall;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  ProcId peer = kNoProc;  ///< send/recv peer; kNoProc for gaps
  ItemId item = 0;              ///< item in flight; 0 for gaps

  [[nodiscard]] std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// One hop of the critical path.  `via_wire` marks a cross-rank edge: this
/// event was gated by the matched send on `rank`'s peer rather than by the
/// rank's own previous instruction.
struct PathSegment {
  ProcId rank = kNoProc;
  exec::ExecEvent::Kind kind = exec::ExecEvent::Kind::kSend;
  ProcId peer = kNoProc;
  ItemId item = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  Time planned = 0;      ///< the plan's cycle for this event
  bool via_wire = false; ///< reached from the matched send, not the stream
};

/// Per-rank totals of the five components plus the span they partition.
struct RankBreakdown {
  std::uint64_t first_start_ns = 0;  ///< rank's first event begins
  std::uint64_t last_end_ns = 0;     ///< rank's last event completes
  std::uint64_t component_ns[kComponents] = {};
  std::size_t sends = 0;
  std::size_t recvs = 0;
  std::size_t phases_begin = 0;  ///< first phase in RunProfile::phases
  std::size_t phases_end = 0;    ///< one past the last

  [[nodiscard]] std::uint64_t ns(Component c) const {
    return component_ns[static_cast<std::size_t>(c)];
  }
  /// The rank's busy wall time: last event end - first event start.
  [[nodiscard]] std::uint64_t span_ns() const {
    return last_end_ns - first_start_ns;
  }
  /// Sum of the five components — equals span_ns() by construction.
  [[nodiscard]] std::uint64_t components_sum_ns() const;
};

/// Effective parameters of one run, in nanoseconds, with sample counts so
/// callers can judge the fit (a P=2 broadcast has no gap samples).
struct MeasuredLogP {
  double L_ns = 0;
  double o_ns = 0;
  double g_ns = 0;
  std::size_t latency_samples = 0;
  std::size_t overhead_samples = 0;
  std::size_t gap_samples = 0;
};

/// Everything analyze() derives from one ExecReport.
struct RunProfile {
  std::string label;           ///< the program's label ("bcast", ...)
  int P = 0;
  exec::Mode mode = exec::Mode::kMove;
  std::uint64_t wall_ns = 0;   ///< the run's measured makespan
  Time predicted_makespan = 0; ///< the plan's completion time, cycles

  std::vector<RankBreakdown> ranks;  ///< [rank]
  /// Every rank's phases, rank by rank; rank p's are the start-ordered
  /// range [ranks[p].phases_begin, ranks[p].phases_end) (rank_phases(p)).
  std::vector<Phase> phases;

  /// The causal chain ending at the last-finishing event, oldest hop
  /// first.  Empty only when the run recorded no events at all.
  std::vector<PathSegment> critical_path;
  /// End of the critical path relative to the run start — the measured
  /// completion of the last-finishing rank.
  std::uint64_t critical_path_ns = 0;
  /// The rank the critical path ends at (last event to finish).
  ProcId straggler = kNoProc;

  /// Effective (L, o, g) fitted from this run's events.
  MeasuredLogP fit;
  /// Least-squares ns-per-cycle scale mapping the plan machine's (L, o, g)
  /// cycles onto the fitted nanosecond values.
  double ns_per_cycle = 0;
  /// predicted_makespan cycles scaled to nanoseconds by ns_per_cycle.
  double predicted_ns = 0;
  /// (critical_path_ns - predicted_ns) / predicted_ns; 0 when the plan
  /// predicts a zero makespan.  Positive: the run was slower than the
  /// fitted model prices the schedule; negative: faster (overlap the
  /// single-port model does not credit).
  double residual = 0;
  /// Set by the flight recorder when |residual| crosses its threshold.
  bool anomalous = false;

  /// Total over all ranks of one component (ns).
  [[nodiscard]] std::uint64_t total_ns(Component c) const;
  /// Rank p's phases, start-ordered.
  [[nodiscard]] std::span<const Phase> rank_phases(std::size_t p) const {
    const RankBreakdown& rb = ranks[p];
    return {phases.data() + rb.phases_begin, rb.phases_end - rb.phases_begin};
  }
};

/// Profiles one run.  Requires per-rank events non-decreasing in start_ns
/// (the engine's documented ordering guarantee) and every receive's
/// `match` to be kNoMatch (no wire edge) or the index of a send of the
/// same item to that rank; throws std::invalid_argument otherwise rather
/// than returning garbage.
[[nodiscard]] RunProfile analyze(const exec::ExecReport& report);

}  // namespace logpc::obs
