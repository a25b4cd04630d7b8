#include "obs/critical_path.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace logpc::obs {

namespace {

using exec::ExecEvent;

/// Index of one event in the report: (rank, position in the stream).
struct EventRef {
  ProcId rank = kNoProc;
  std::size_t index = 0;
};

/// True when receive `ev` on rank p names a send of its item to p.
bool names_send(const exec::ExecReport& report, std::size_t p,
                const ExecEvent& ev) {
  const auto peer = static_cast<std::size_t>(ev.peer);
  if (peer >= report.events.size() || ev.match >= report.events[peer].size()) {
    return false;
  }
  const ExecEvent& s = report.events[peer][ev.match];
  return s.kind == ExecEvent::Kind::kSend &&
         s.peer == static_cast<ProcId>(p) && s.item == ev.item;
}

Component arrival_component(exec::Mode mode) {
  // Move-mode receives copy bytes (receive overhead in the model's sense);
  // fold/sum receives combine the payload into the accumulator.
  return mode == exec::Mode::kMove ? Component::kRecvOverhead
                                   : Component::kFold;
}

}  // namespace

const char* component_name(Component c) noexcept {
  switch (c) {
    case Component::kSendOverhead: return "send_overhead";
    case Component::kLatencyWait: return "latency_wait";
    case Component::kRecvOverhead: return "recv_overhead";
    case Component::kFold: return "fold";
    case Component::kGapStall: return "gap_stall";
  }
  return "?";
}

std::uint64_t RankBreakdown::components_sum_ns() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : component_ns) sum += c;
  return sum;
}

std::uint64_t RunProfile::total_ns(Component c) const {
  std::uint64_t sum = 0;
  for (const RankBreakdown& r : ranks) sum += r.ns(c);
  return sum;
}

RunProfile analyze(const exec::ExecReport& report) {
  const std::size_t P = report.events.size();
  RunProfile profile;
  profile.label = report.label;
  profile.P = static_cast<int>(P);
  profile.mode = report.mode;
  profile.wall_ns = report.wall_ns;
  profile.predicted_makespan = report.predicted_makespan;
  profile.ranks.resize(P);
  std::size_t total_events = 0;
  for (const std::vector<ExecEvent>& evs : report.events) {
    total_events += evs.size();
  }
  // Worst case per event: one gap phase + two interval phases.
  profile.phases.reserve(total_events * 3);

  // --- one walk: partition each span into phases and sum the fit ----------
  const Component arrive = arrival_component(report.mode);
  const Component between = report.mode == exec::Mode::kSum
                                ? Component::kFold
                                : Component::kGapStall;
  MeasuredLogP& fit = profile.fit;
  double latency_sum = 0;
  double overhead_sum = 0;
  double gap_sum = 0;
  for (std::size_t p = 0; p < P; ++p) {
    const std::vector<ExecEvent>& evs = report.events[p];
    RankBreakdown& rb = profile.ranks[p];
    rb.phases_begin = profile.phases.size();
    auto add = [&](Component c, std::uint64_t from, std::uint64_t to,
                   ProcId peer, ItemId item) {
      if (to <= from) return;
      rb.component_ns[static_cast<std::size_t>(c)] += to - from;
      profile.phases.push_back(Phase{c, from, to, peer, item});
    };
    if (!evs.empty()) {
      rb.first_start_ns = evs.front().start_ns;
      rb.last_end_ns = evs.back().end_ns;
    }
    std::uint64_t prev_end = rb.first_start_ns;
    std::uint64_t prev_send_start = 0;
    bool have_prev_send = false;
    for (const ExecEvent& ev : evs) {
      if (ev.start_ns < prev_end) {
        // The engine's documented ordering guarantee: events[p] is
        // non-decreasing in start_ns and intervals never overlap (each op
        // completes before the next begins on the same thread).
        throw std::invalid_argument(
            "obs::analyze: events out of stream order at rank " +
            std::to_string(p));
      }
      if (ev.xfer_ns < ev.start_ns || ev.end_ns < ev.xfer_ns) {
        throw std::invalid_argument(
            "obs::analyze: malformed event timestamps at rank " +
            std::to_string(p));
      }
      // Inter-event gap: kSum streams fold local operands between timed
      // events (kCombineLocal emits none), so the gap is combining work
      // there; everywhere else it is stall.
      add(between, prev_end, ev.start_ns, kNoProc, 0);
      if (ev.kind == ExecEvent::Kind::kSend) {
        ++rb.sends;
        add(Component::kSendOverhead, ev.start_ns, ev.end_ns, ev.peer,
            ev.item);
        // Send overhead: op begin to push accepted (includes backpressure
        // stalls, exactly as a saturated LogP port would charge them).
        overhead_sum += static_cast<double>(ev.xfer_ns - ev.start_ns);
        ++fit.overhead_samples;
        if (have_prev_send) {
          gap_sum += static_cast<double>(ev.start_ns - prev_send_start);
          ++fit.gap_samples;
        }
        prev_send_start = ev.start_ns;
        have_prev_send = true;
      } else {
        ++rb.recvs;
        add(Component::kLatencyWait, ev.start_ns, ev.xfer_ns, ev.peer,
            ev.item);
        add(arrive, ev.xfer_ns, ev.end_ns, ev.peer, ev.item);
        // Receive overhead: payload arrived to folded/stored.
        overhead_sum += static_cast<double>(ev.end_ns - ev.xfer_ns);
        ++fit.overhead_samples;
        // Wire latency: the matched send's push accepted to payload
        // arrived.  A receive without a recorded match has no sample.
        if (ev.match != ExecEvent::kNoMatch) {
          if (!names_send(report, p, ev)) {
            throw std::invalid_argument(
                "obs::analyze: receive at rank " + std::to_string(p) +
                " names no matching send on P" + std::to_string(ev.peer));
          }
          const std::uint64_t push =
              report.events[static_cast<std::size_t>(ev.peer)][ev.match]
                  .xfer_ns;
          if (ev.xfer_ns >= push) {
            latency_sum += static_cast<double>(ev.xfer_ns - push);
            ++fit.latency_samples;
          }
        }
      }
      prev_end = ev.end_ns;
    }
    rb.phases_end = profile.phases.size();
  }
  if (fit.latency_samples > 0) {
    fit.L_ns = latency_sum / static_cast<double>(fit.latency_samples);
  }
  if (fit.overhead_samples > 0) {
    fit.o_ns = overhead_sum / static_cast<double>(fit.overhead_samples);
  }
  if (fit.gap_samples > 0) {
    fit.g_ns = gap_sum / static_cast<double>(fit.gap_samples);
  }
  // The model requires g >= the per-message port occupancy.
  fit.g_ns = std::max(fit.g_ns, fit.o_ns);

  // --- critical path: backward walk from the last-finishing event ---------
  EventRef last;
  std::uint64_t last_end = 0;
  for (std::size_t p = 0; p < P; ++p) {
    if (report.events[p].empty()) continue;
    const std::uint64_t end = report.events[p].back().end_ns;
    // Ties resolve to the lower rank; any tied rank is equally "last".
    if (last.rank == kNoProc || end > last_end) {
      last = EventRef{static_cast<ProcId>(p), report.events[p].size() - 1};
      last_end = end;
    }
  }
  if (last.rank != kNoProc) {
    profile.straggler = last.rank;
    profile.critical_path_ns = last_end;
    std::vector<PathSegment> path;  // built newest-first, reversed below
    EventRef cur = last;
    for (;;) {
      const auto p = static_cast<std::size_t>(cur.rank);
      const ExecEvent& ev = report.events[p][cur.index];
      // Gating predecessor: a receive that was already waiting when the
      // payload arrived was gated by the matched send (wire edge);
      // everything else by the previous event on the same rank.
      bool wire = false;
      EventRef pred;
      if (ev.kind == ExecEvent::Kind::kRecv &&
          ev.match != ExecEvent::kNoMatch) {
        const ExecEvent& s =
            report.events[static_cast<std::size_t>(ev.peer)][ev.match];
        if (s.xfer_ns >= ev.start_ns) {
          wire = true;
          pred = EventRef{ev.peer, ev.match};
        }
      }
      if (!wire && cur.index > 0) {
        pred = EventRef{cur.rank, cur.index - 1};
      }
      path.push_back(PathSegment{cur.rank, ev.kind, ev.peer, ev.item,
                                 ev.start_ns, ev.end_ns, ev.planned, wire});
      if (pred.rank == kNoProc) break;
      // The wire-edge test admits ties (s.xfer_ns == ev.start_ns), which a
      // coarse clock can turn into a timestamp cycle. A valid causal chain
      // visits each event at most once, so a longer walk is a cycle: stop.
      if (path.size() >= total_events) break;
      cur = pred;
    }
    std::reverse(path.begin(), path.end());
    profile.critical_path = std::move(path);
  }

  // --- model residual: measured critical path vs scaled prediction --------
  // Least-squares scale c minimizing sum_i (c * cycles_i - ns_i)^2 over the
  // (L, o, g) pairs that have samples: c = sum(cycles*ns) / sum(cycles^2).
  double num = 0, den = 0;
  auto pair = [&](Time cycles, double ns, std::size_t samples) {
    if (samples == 0 || cycles <= 0) return;
    num += static_cast<double>(cycles) * ns;
    den += static_cast<double>(cycles) * static_cast<double>(cycles);
  };
  pair(report.params.L, fit.L_ns, fit.latency_samples);
  pair(report.params.o, fit.o_ns, fit.overhead_samples);
  pair(report.params.g, fit.g_ns, fit.gap_samples);
  profile.ns_per_cycle = den > 0 ? num / den : 0;
  profile.predicted_ns =
      static_cast<double>(profile.predicted_makespan) * profile.ns_per_cycle;
  if (profile.predicted_ns > 0) {
    profile.residual =
        (static_cast<double>(profile.critical_path_ns) - profile.predicted_ns) /
        profile.predicted_ns;
  }
  return profile;
}

}  // namespace logpc::obs
