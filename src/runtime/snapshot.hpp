#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "runtime/plan_cache.hpp"

/// \file snapshot.hpp
/// Binary plan-cache snapshots: persist every cached plan so a serving
/// process can start hot — save on shutdown (or from a cron'd warmer), load
/// before taking traffic, then warm only the difference.
///
/// Format: header "logpc-plansnap v4\n" — the only version read or
/// written; any other header is rejected — a 64-bit entry count, then per
/// entry the canonical key (membership mask and topology words included),
/// the scalar metadata, and, for materialized plans, the schedule in the
/// sched/io binary form.  Loading re-canonicalizes each key through
/// PlanKey::make and structurally validates each stored schedule.  A key
/// with an implicit form is then rebuilt from the key alone
/// (runtime::implicit_only_plan), discarding whatever was stored for it —
/// so snapshots from writers that materialized small plans still load, as
/// implicit-only plans.  A corrupt or stale snapshot throws instead of
/// poisoning the cache.

namespace logpc::runtime {

/// Writes every entry of `cache` to `os` (least-recently-used first, so a
/// later load replays recency).  Returns the number of plans written.
std::size_t save_snapshot(const PlanCache& cache, std::ostream& os);

/// Convenience: save_snapshot to a file.  Throws std::runtime_error when
/// the file cannot be written.
std::size_t save_snapshot(const PlanCache& cache, const std::string& path);

/// Inserts every snapshot entry into `cache` (in stream order; entries
/// beyond capacity evict per LRU as usual).  Returns the number of plans
/// loaded.  Throws std::invalid_argument on malformed input.
std::size_t load_snapshot(PlanCache& cache, std::istream& is);

/// Convenience: load_snapshot from a file.  Throws std::runtime_error when
/// the file cannot be read.
std::size_t load_snapshot(PlanCache& cache, const std::string& path);

}  // namespace logpc::runtime
