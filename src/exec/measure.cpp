#include "exec/measure.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace logpc::exec {

sim::MeasuredParams MeasuredLogP::as_measured_params(
    double ns_per_cycle, const Params& machine) const {
  sim::MeasuredParams m;
  m.P = machine.P;
  if (ns_per_cycle <= 0) {
    m.L = 1;
    m.o = 0;
    m.g = 1;
    return m;
  }
  const auto cycles = [ns_per_cycle](double ns, Time floor_at) {
    return std::max(floor_at,
                    static_cast<Time>(std::llround(ns / ns_per_cycle)));
  };
  m.L = cycles(L_ns, 1);
  m.o = cycles(o_ns, 0);
  m.g = cycles(g_ns, 1);
  return m;
}

MeasuredLogP measure(const ExecReport& report) {
  double latency_sum = 0;
  double overhead_sum = 0;
  double gap_sum = 0;
  MeasuredLogP out;
  for (const std::vector<ExecEvent>& evs : report.events) {
    std::uint64_t prev_send_start = 0;
    bool have_prev_send = false;
    for (const ExecEvent& ev : evs) {
      if (ev.kind == ExecEvent::Kind::kRecv) {
        // Receive overhead: payload-arrived to folded/stored.
        overhead_sum += static_cast<double>(ev.end_ns - ev.xfer_ns);
        ++out.overhead_samples;
        // Wire latency: the matched send's push accepted to payload
        // arrived.  A receive without a recorded match has no sample.
        const auto peer = static_cast<std::size_t>(ev.peer);
        if (peer < report.events.size() &&
            ev.match < report.events[peer].size()) {
          const std::uint64_t push = report.events[peer][ev.match].xfer_ns;
          if (ev.xfer_ns >= push) {
            latency_sum += static_cast<double>(ev.xfer_ns - push);
            ++out.latency_samples;
          }
        }
      } else {
        // Send overhead: op begin to push accepted (includes backpressure
        // stalls, exactly as a saturated LogP port would charge them).
        overhead_sum += static_cast<double>(ev.xfer_ns - ev.start_ns);
        ++out.overhead_samples;
        if (have_prev_send) {
          gap_sum += static_cast<double>(ev.start_ns - prev_send_start);
          ++out.gap_samples;
        }
        prev_send_start = ev.start_ns;
        have_prev_send = true;
      }
    }
  }
  if (out.latency_samples > 0) {
    out.L_ns = latency_sum / static_cast<double>(out.latency_samples);
  }
  if (out.overhead_samples > 0) {
    out.o_ns = overhead_sum / static_cast<double>(out.overhead_samples);
  }
  if (out.gap_samples > 0) {
    out.g_ns = gap_sum / static_cast<double>(out.gap_samples);
  }
  // The model requires g >= the per-message port occupancy.
  out.g_ns = std::max(out.g_ns, out.o_ns);
  return out;
}

double fitted_ns_per_cycle(const ExecReport& report) {
  if (report.predicted_makespan <= 0) return 0;
  return static_cast<double>(report.wall_ns) /
         static_cast<double>(report.predicted_makespan);
}

}  // namespace logpc::exec
