#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

/// \file trace.hpp
/// In-memory spans recorded by the benchmark's own code around its calls
/// into the library (submit, Planner::plan, Communicator::compile,
/// obs::analyze) and rebuilt from the stamps a Response returns (queue
/// wait, engine run, outside-engine interval, hand-off).  Each client
/// thread owns one SpanLog, so recording takes no lock; the logs are
/// merged and written out when the run ends.

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the first call in this process.
[[nodiscard]] std::int64_t now_ns();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span
  std::uint32_t thread = 0;
  const char* name = "";     ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::uint32_t thread) : thread_(thread) {}
  /// A fresh span id, unique across threads; lets a parent be recorded
  /// after its children, once its end is known.
  [[nodiscard]] std::uint64_t open() {
    return (static_cast<std::uint64_t>(thread_) << 40) | ++next_;
  }
  void add(std::uint64_t id, const char* name, std::uint64_t parent,
           std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(Span{id, parent, thread_, name, start_ns, end_ns});
  }
  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns) {
    const std::uint64_t id = open();
    add(id, name, parent, start_ns, end_ns);
    return id;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t thread_;
  std::uint64_t next_ = 0;
  std::vector<Span> spans_;
};

struct SelfTime {
  std::string name;
  std::size_t count = 0;
  double total_ns = 0;  ///< summed self time
};

/// Self time per span name: each span's duration minus the part of it its
/// child spans cover.  Sorted by name.
[[nodiscard]] std::vector<SelfTime> self_times(const std::vector<Span>& spans);

/// Writes `spans` as a Chrome trace-event file; false on I/O failure.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
