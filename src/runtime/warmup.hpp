#pragma once

#include <cstdint>
#include <vector>

#include "runtime/planner.hpp"

/// \file warmup.hpp
/// Cache precompute: fill a Planner for a parameter grid before traffic
/// arrives, on a small std::thread pool.  A serving process typically
/// either warms a grid at startup or loads a snapshot (snapshot.hpp: the
/// saved keys, rebuilt one by one on the loading thread) and warms the
/// difference.  The planner's in-flight dedup makes warmup safe
/// to run concurrently with live requests — a request for a key being
/// warmed simply waits for that one build.

namespace logpc::runtime {

/// Cartesian parameter grid describing the keys to precompute.
struct WarmupGrid {
  std::vector<Problem> problems;
  std::vector<Params> machines;
  /// Item/operand counts, applied to the k-dependent problems only.
  std::vector<std::int64_t> ks = {1};

  /// Expands to canonical keys, deduplicated (normalization folds grid
  /// points onto shared keys, e.g. every k for a single-item problem).
  /// Grid points whose key factory rejects the arguments are skipped.
  [[nodiscard]] std::vector<PlanKey> keys() const;
};

struct WarmupReport {
  std::size_t requested = 0;   ///< keys handed to the pool
  std::size_t planned = 0;     ///< keys that resolved to a plan
  std::size_t failed = 0;      ///< keys whose builder threw
  std::uint64_t built = 0;     ///< builder runs this warmup (cache misses)
};

/// Plans every key on `threads` workers (0 = hardware concurrency).  Before
/// spawning, pre-extends the shared Fibonacci tables (logp/fib.hpp) for
/// every postal latency in the grid, so the B(P)/k* queries inside the
/// builders start warm instead of racing to rebuild the same sequence.
WarmupReport warmup(Planner& planner, const std::vector<PlanKey>& keys,
                    unsigned threads = 0);

/// Convenience: expand the grid and warm it.
WarmupReport warmup(Planner& planner, const WarmupGrid& grid,
                    unsigned threads = 0);

}  // namespace logpc::runtime
