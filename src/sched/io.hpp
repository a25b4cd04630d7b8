#pragma once

#include <iosfwd>
#include <string>

#include "sched/schedule.hpp"

/// \file io.hpp
/// Plain-text schedule serialization: stable, versioned, diff-friendly.
/// Lets schedules be archived, inspected, or replayed by external tools
/// (and round-tripped in tests).  It is the only schedule format: plan
/// snapshots store keys and rebuild (runtime/snapshot.hpp).
///
/// Format (one record per line, '#' comments ignored):
///
///   logpc-schedule v1
///   params <P> <L> <o> <g>
///   items <K>
///   init <item> <proc> <time>
///   send <start> <from> <to> <item> [<recv_start>]

namespace logpc {

/// Serializes the schedule (sorted output for stability).
[[nodiscard]] std::string to_text(const Schedule& s);
void write_text(std::ostream& os, const Schedule& s);

/// Parses a schedule; throws std::invalid_argument with a line number on
/// malformed input.  Performs structural validation only (ids in range);
/// run validate::check for the LogP rules.
[[nodiscard]] Schedule schedule_from_text(const std::string& text);
[[nodiscard]] Schedule read_text(std::istream& is);

}  // namespace logpc
