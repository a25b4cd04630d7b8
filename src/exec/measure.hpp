#pragma once

#include "exec/engine.hpp"
#include "sim/calibrate.hpp"

/// \file measure.hpp
/// Fitting effective LogP parameters from an execution's timestamps — the
/// measured half of the predicted-vs-measured loop the LogP methodology
/// closes (and sim::calibrate closes against the simulator):
///
///   o — how long a processor is busy per send/receive (push latency,
///       arrival-to-folded latency),
///   L — how long a payload spends "on the wire": push-accepted on the
///       sender to pop-succeeded at the receiver, the send being the one
///       the receive names (ExecEvent::match),
///   g — the spacing of back-to-back sends from one processor.
///
/// The fit is in nanoseconds; as_measured_params() quantizes to model
/// cycles given a cycle length, yielding a sim::MeasuredParams directly
/// comparable with the machine the plan was built for.  bench_exec reports
/// both, per grid point, into BENCH_exec.json.

namespace logpc::exec {

/// Effective parameters of one run, in nanoseconds, with sample counts so
/// callers can judge the fit (a P=2 broadcast has no gap samples).
struct MeasuredLogP {
  double L_ns = 0;
  double o_ns = 0;
  double g_ns = 0;
  std::size_t latency_samples = 0;
  std::size_t overhead_samples = 0;
  std::size_t gap_samples = 0;

  /// Quantizes to model cycles of length `ns_per_cycle` (values clamped to
  /// the model's minima: L >= 1, o >= 0, g >= 1), carrying P over from
  /// `machine`.
  [[nodiscard]] sim::MeasuredParams as_measured_params(
      double ns_per_cycle, const Params& machine) const;
};

/// Fits (L, o, g) from a report's per-processor event logs.
[[nodiscard]] MeasuredLogP measure(const ExecReport& report);

/// The run's implied cycle length: measured wall time over predicted
/// cycles (0 when the plan predicts a zero makespan).
[[nodiscard]] double fitted_ns_per_cycle(const ExecReport& report);

}  // namespace logpc::exec
