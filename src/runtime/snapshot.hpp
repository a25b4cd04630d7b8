#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "runtime/plan_cache.hpp"

/// \file snapshot.hpp
/// Plan-cache snapshots: persist the key of every cached plan so a serving
/// process can start hot — save on shutdown (or from a cron'd warmer), load
/// before taking traffic, then warm only the difference.  Loading builds
/// every plan; the request path then builds none.
///
/// Every plan is a deterministic function of its canonical key, so a
/// snapshot stores keys only.  Format: header "logpc-plansnap v7\n" (the
/// only version read or written; any other header is rejected), an i64
/// entry count, per entry the eight canonical key fields (problem, P, L,
/// o, g, k, root, membership mask), then a 64-bit
/// FNV-1a checksum over every byte after the header.  Loading range-checks
/// every field, verifies the checksum, requires each key to be its own
/// PlanKey::make canonical form, and only then rebuilds each plan with
/// Planner::build_uncached — so a loaded plan is always the one its key
/// names, and a corrupt or stale snapshot throws instead of poisoning the
/// cache.

namespace logpc::runtime {

/// Writes every entry of `cache` to `os` (least-recently-used first, so a
/// later load replays recency).  Returns the number of plans written.
std::size_t save_snapshot(const PlanCache& cache, std::ostream& os);

/// Convenience: save_snapshot to a file.  Throws std::runtime_error when
/// the file cannot be written.
std::size_t save_snapshot(const PlanCache& cache, const std::string& path);

/// Rebuilds every snapshot entry and inserts it into `cache` (in stream
/// order; entries beyond capacity evict per LRU as usual).  Returns the
/// number of plans loaded.  Throws std::invalid_argument on malformed
/// input, leaving `cache` untouched.
std::size_t load_snapshot(PlanCache& cache, std::istream& is);

/// Convenience: load_snapshot from a file.  Throws std::runtime_error when
/// the file cannot be read.
std::size_t load_snapshot(PlanCache& cache, const std::string& path);

}  // namespace logpc::runtime
