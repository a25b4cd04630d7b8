#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SelfTime> by_name;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      cover.clear();
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (a < b) cover.emplace_back(a, b);
      }
      std::sort(cover.begin(), cover.end());
      std::int64_t reach = s.start_ns;
      for (const auto& [a, b] : cover) {
        if (b <= reach) continue;
        covered += b - std::max(a, reach);
        reach = b;
      }
    }
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_ns += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    f << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
      << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
      << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
    first = false;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
