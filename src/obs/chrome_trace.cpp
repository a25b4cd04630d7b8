#include "obs/chrome_trace.hpp"

#include <ostream>
#include <set>
#include <sstream>

#include "obs/json.hpp"

namespace logpc::obs {

namespace {

/// Nanoseconds to the viewers' microsecond clock, with sub-us precision.
std::string us(std::uint64_t ns) {
  return json_number(static_cast<double>(ns) / 1e3);
}

}  // namespace

void ChromeTraceWriter::add_process_name(int pid, std::string_view name) {
  std::ostringstream e;
  e << R"({"name":"process_name","ph":"M","pid":)" << pid
    << R"(,"tid":0,"args":{"name":)" << json_string(name) << "}}";
  events_.push_back(e.str());
}

void ChromeTraceWriter::add_thread_name(int pid, std::uint32_t tid,
                                        std::string_view name) {
  std::ostringstream e;
  e << R"({"name":"thread_name","ph":"M","pid":)" << pid << R"(,"tid":)" << tid
    << R"(,"args":{"name":)" << json_string(name) << "}}";
  events_.push_back(e.str());
}

void ChromeTraceWriter::add(const TraceRecorder& rec, int pid,
                            std::string_view process_name) {
  add_process_name(pid, process_name);
  std::set<std::uint32_t> tids;
  for (const TraceEvent& ev : rec.events()) {
    tids.insert(ev.tid);
    std::ostringstream e;
    e << R"({"name":)" << json_string(ev.name) << R"(,"ph":"X","cat":)"
      << json_string(ev.cat.empty() ? "span" : ev.cat) << R"(,"pid":)" << pid
      << R"(,"tid":)" << ev.tid << R"(,"ts":)" << us(ev.ts_ns) << R"(,"dur":)"
      << us(ev.dur_ns);
    if (!ev.arg.empty()) {
      e << R"(,"args":{"detail":)" << json_string(ev.arg) << "}";
    }
    e << "}";
    events_.push_back(e.str());
  }
  for (const std::uint32_t tid : tids) {
    add_thread_name(pid, tid, "thread " + std::to_string(tid));
  }
}

void ChromeTraceWriter::add(const sim::Trace& trace, int pid,
                            std::string_view process_name) {
  add_process_name(pid, process_name);
  for (std::size_t p = 0; p < trace.per_proc.size(); ++p) {
    add_thread_name(pid, static_cast<std::uint32_t>(p),
                    "proc " + std::to_string(p));
    for (const sim::Activity& a : trace.per_proc[p]) {
      const bool send = a.kind == sim::ActivityKind::kSendOverhead;
      std::ostringstream name;
      name << (send ? "send i" : "recv i") << a.item
           << (send ? " -> p" : " <- p") << a.peer;
      std::ostringstream e;
      e << R"({"name":)" << json_string(name.str()) << R"(,"cat":)"
        << (send ? R"("sim.send")" : R"("sim.recv")") << R"(,"pid":)" << pid
        << R"(,"tid":)" << p << R"(,"ts":)" << a.begin;
      if (a.end == a.begin) {
        // o == 0: a zero-length overhead point — mark it as an instant so
        // the viewer draws it instead of an invisible slice.
        e << R"(,"ph":"i","s":"t")";
      } else {
        e << R"(,"ph":"X","dur":)" << (a.end - a.begin);
      }
      e << R"(,"args":{"item":)" << a.item << R"(,"peer":)" << a.peer << "}}";
      events_.push_back(e.str());
    }
  }
}

void ChromeTraceWriter::add(const RunProfile& profile, int pid,
                            std::string_view process_name) {
  add_process_name(pid, process_name);
  // Stable viewer palette per component (trace-event "cname" values):
  // greens for useful overhead, blues/greys for waiting.
  auto cname = [](Component c) -> const char* {
    switch (c) {
      case Component::kSendOverhead: return "thread_state_running";
      case Component::kRecvOverhead: return "thread_state_runnable";
      case Component::kLatencyWait: return "thread_state_iowait";
      case Component::kFold: return "rail_animation";
      case Component::kGapStall: return "grey";
    }
    return "grey";
  };
  for (std::size_t p = 0; p < profile.ranks.size(); ++p) {
    add_thread_name(pid, static_cast<std::uint32_t>(p),
                    "rank " + std::to_string(p));
    for (const Phase& ph : profile.rank_phases(p)) {
      std::ostringstream e;
      e << R"({"name":)" << json_string(component_name(ph.component))
        << R"(,"ph":"X","cat":"profile","cname":")" << cname(ph.component)
        << R"(","pid":)" << pid << R"(,"tid":)" << p << R"(,"ts":)"
        << us(ph.start_ns) << R"(,"dur":)" << us(ph.duration_ns())
        << R"(,"args":{"item":)" << ph.item << R"(,"peer":)" << ph.peer
        << "}}";
      events_.push_back(e.str());
    }
  }
  const auto cp_tid = static_cast<std::uint32_t>(profile.ranks.size());
  add_thread_name(pid, cp_tid, "critical path");
  for (const PathSegment& seg : profile.critical_path) {
    const bool send = seg.kind == exec::ExecEvent::Kind::kSend;
    std::ostringstream name;
    name << (send ? "send i" : "recv i") << seg.item << "@p" << seg.rank;
    std::ostringstream e;
    e << R"({"name":)" << json_string(name.str())
      << R"(,"ph":"X","cat":"profile.critical","cname":")"
      << (seg.via_wire ? "rail_response" : "thread_state_running")
      << R"(","pid":)" << pid << R"(,"tid":)" << cp_tid << R"(,"ts":)"
      << us(seg.start_ns) << R"(,"dur":)" << us(seg.end_ns - seg.start_ns)
      << R"(,"args":{"rank":)" << seg.rank << R"(,"peer":)" << seg.peer
      << R"(,"planned":)" << seg.planned << R"(,"via_wire":)"
      << (seg.via_wire ? "true" : "false") << "}}";
    events_.push_back(e.str());
  }
}

void ChromeTraceWriter::write(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    os << (i ? ",\n" : "\n") << events_[i];
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::string ChromeTraceWriter::json() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

void write_chrome_trace(const TraceRecorder& rec, std::ostream& os) {
  ChromeTraceWriter w;
  w.add(rec);
  w.write(os);
}

void write_chrome_trace(const sim::Trace& trace, std::ostream& os) {
  ChromeTraceWriter w;
  w.add(trace);
  w.write(os);
}

}  // namespace logpc::obs
