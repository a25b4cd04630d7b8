#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "logp/hier.hpp"
#include "runtime/planner.hpp"
#include "tune/decision_table.hpp"

/// \file tuner.hpp
/// The offline auto-tuner: benchmark every candidate broadcast schedule on
/// the *real* execution engine per (P, payload-size segment), record the
/// measured winner per segment in a DecisionTable, and let the planner's
/// tuned fast path serve it from then on.  This is the mpptest-style
/// methodology of Barchet-Estefanel & Mounié (arXiv:cs/0408034): model
/// parameters predict well inside one regime, but regime *boundaries*
/// (where the segmented pipeline overtakes the bulk tree, where tree
/// shape stops mattering) are cheaper to measure than to model.
///
/// Candidates per segment, a fixed set: the paper-optimal Theorem 2.1
/// tree, the binomial / binary / chain baselines, the two-level
/// hierarchical schedule (when `clusters` asks for it, with cross-cluster
/// links {L = 16, o = 2, g = 8}), and the Section 3 segmented k-item
/// pipeline (always split, into clamp(ceil(bytes / 64 KiB), 2, 16)
/// segments, so it prices its per-segment overhead honestly at small
/// payloads instead of silently degenerating to the bulk tree).  Trials
/// are interleaved across candidates round-robin — the same de-drifting
/// the telemetry-overhead bench uses — and scored by median wall time.

namespace logpc::tune {

/// The planning machine every candidate schedule is built on, P replaced
/// by the grid point's.  Only the schedule *shape* depends on it; timings
/// come from the engine.
inline constexpr Params kTuningMachine{2, 4, 1, 2};

struct TunerOptions {
  /// Machine sizes to tune.  Every P must be >= 2.
  std::vector<int> Ps{4, 8};
  /// Representative payload bytes per size segment (each lands in its
  /// size_class_of bucket; one decision is recorded per distinct class).
  std::vector<std::size_t> sizes{256, 4096, 65536, 262144};
  /// > 1 adds the hierarchical candidate with this many uniform clusters
  /// (skipped at grid points where clusters >= P).
  std::int32_t clusters = 0;
  int trials = 5;  ///< timed rounds per candidate (median scored)
  int warmup = 1;  ///< untimed rounds per candidate
  /// Planner to resolve candidate plans through (warms its cache as a side
  /// effect); nullptr uses runtime::Planner::shared_default().
  std::shared_ptr<runtime::Planner> planner;
};

/// One candidate's score at one grid point.
struct CandidateTiming {
  std::string name;  ///< "optimal", "binomial", ..., "segmented(k=4)"
  runtime::Problem problem = runtime::Problem::kBroadcast;
  std::int32_t segments = 1;
  std::int32_t clusters = 0;
  double median_ns = 0;
};

/// Everything measured at one (P, size) grid point, plus the decision the
/// table recorded for its size class.
struct SegmentResult {
  Collective collective = Collective::kBroadcast;
  int P = 0;
  std::size_t bytes = 0;
  int size_class = 0;
  std::vector<CandidateTiming> timings;  ///< sorted fastest first
  Decision winner;
};

struct TuneReport {
  std::vector<SegmentResult> segments;
  DecisionTable table;
};

/// Runs the tuning grid on the real engine.  Throws std::invalid_argument
/// for an empty or ill-formed grid.  The returned table is ready to
/// install via runtime::Planner::set_decision_table (and to persist via
/// DecisionTable::save).
[[nodiscard]] TuneReport auto_tune(const TunerOptions& opts);

}  // namespace logpc::tune
