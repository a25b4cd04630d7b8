#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/trace.hpp"

/// \file chrome_trace.hpp
/// Chrome trace-event JSON export, loadable in chrome://tracing and
/// Perfetto (ui.perfetto.dev).  Two sources share one timeline file:
///
///  * runtime spans from a TraceRecorder — wall-clock slices of planner
///    builds, warmup grid points and collective calls, one row per thread;
///  * a simulated schedule's sim::Trace — the per-processor send/recv
///    *overhead* intervals of a LogP schedule, one row per processor, with
///    1 simulated cycle rendered as 1 microsecond.
///
/// Zero-length activities (o == 0 machines) become instant events ("ph":
/// "i"), which the viewers draw as markers rather than invisible slices.

namespace logpc::obs {

/// Accumulates trace events from any number of sources, then writes one
/// JSON-object-format file ({"traceEvents": [...], ...}).
class ChromeTraceWriter {
 public:
  /// Adds every retained event of `rec` as a complete ("X") slice under
  /// process id `pid`, with thread-name metadata per recorded tid.
  void add(const TraceRecorder& rec, int pid = 1,
           std::string_view process_name = "logpc runtime");

  /// Adds a simulated timeline: processor p becomes thread p of `pid`,
  /// each Activity a slice named like "send i2 -> p5" with category
  /// "sim.send"/"sim.recv"; one cycle = 1us on the viewer's clock.
  void add(const sim::Trace& trace, int pid = 2,
           std::string_view process_name = "logp simulation");

  /// Adds a profiled run as per-rank component tracks: rank p becomes
  /// thread p of `pid`, every Phase a slice named for its component and
  /// color-coded by the viewer's palette (cname) so the o / L / g phases —
  /// send/recv overhead, latency waits, gap stalls, folds — read at a
  /// glance.  The critical path lands on one extra track
  /// (tid = P) so the gating chain is visible next to the ranks it
  /// threads through.
  void add(const RunProfile& profile, int pid = 3,
           std::string_view process_name = "run profile");

  [[nodiscard]] std::size_t num_events() const { return events_.size(); }

  void write(std::ostream& os) const;
  [[nodiscard]] std::string json() const;

 private:
  void add_process_name(int pid, std::string_view name);
  void add_thread_name(int pid, std::uint32_t tid, std::string_view name);

  std::vector<std::string> events_;  ///< pre-rendered JSON objects
};

/// One-source conveniences.
void write_chrome_trace(const TraceRecorder& rec, std::ostream& os);
void write_chrome_trace(const sim::Trace& trace, std::ostream& os);

}  // namespace logpc::obs
