#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

/// \file bench_util.hpp
/// Shared scaffolding for the reproduction benches.  Each bench binary
/// first prints the paper-vs-measured tables for its figure/claim, then
/// runs its google-benchmark microbenchmarks.  JsonReport additionally
/// writes a machine-readable BENCH_<name>.json — measurement entries plus a
/// metrics-registry snapshot — so the perf trajectory accumulates across
/// runs instead of living only in scrollback.

namespace logpc::bench {

/// Fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  template <typename... Ts>
  void row(const Ts&... cells) {
    std::vector<std::string> r;
    (r.push_back(to_cell(cells)), ...);
    rows_.push_back(std::move(r));
  }

  void print(std::ostream& os = std::cout) const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    auto line = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        os << "| " << std::setw(static_cast<int>(width[c]))
           << (c < cells.size() ? cells[c] : "") << " ";
      }
      os << "|\n";
    };
    line(headers_);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      os << "|" << std::string(width[c] + 2, '-');
    }
    os << "|\n";
    for (const auto& r : rows_) line(r);
  }

 private:
  template <typename T>
  static std::string to_cell(const T& v) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(v);
    } else {
      std::ostringstream os;
      os << v;
      return os.str();
    }
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline void section(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// "yes"/"NO" marker for reproduction columns.
inline std::string ok(bool v) { return v ? "yes" : "NO"; }

/// Machine-readable bench output: named measurement entries (string params,
/// numeric values) plus an optional obs::MetricsRegistry snapshot, written
/// as BENCH_<bench>.json into $LOGPC_BENCH_DIR (default: the working
/// directory).
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  /// One measurement: `params` describe the configuration ("threads": "4"),
  /// `values` carry the numbers ("ns_per_op": 132.5).
  void entry(const std::string& name,
             std::vector<std::pair<std::string, std::string>> params,
             std::vector<std::pair<std::string, double>> values) {
    std::ostringstream e;
    e << "    {\"name\": " << obs::json_string(name) << ", \"params\": {";
    for (std::size_t i = 0; i < params.size(); ++i) {
      e << (i ? ", " : "") << obs::json_string(params[i].first) << ": "
        << obs::json_string(params[i].second);
    }
    e << "}";
    for (const auto& [key, value] : values) {
      e << ", " << obs::json_string(key) << ": " << obs::json_number(value);
    }
    e << "}";
    entries_.push_back(e.str());
  }

  /// Attaches a point-in-time snapshot of `reg` (counters and gauges as
  /// values, histograms as count/sum) under "metrics".
  void attach_metrics(const obs::MetricsRegistry& reg) {
    std::ostringstream m;
    bool first = true;
    for (const obs::MetricSnapshot& s : reg.snapshot()) {
      const std::string key =
          s.labels.empty() ? s.name : s.name + "{" + s.labels + "}";
      if (s.kind == obs::MetricSnapshot::Kind::kHistogram) {
        m << (first ? "" : ",\n") << "    " << obs::json_string(key)
          << ": {\"count\": " << s.count
          << ", \"sum\": " << obs::json_number(s.sum) << "}";
      } else {
        m << (first ? "" : ",\n") << "    " << obs::json_string(key) << ": "
          << obs::json_number(s.value);
      }
      first = false;
    }
    metrics_json_ = m.str();
    have_metrics_ = true;
  }

  /// `prior` (optional) is a block of already-serialized entry lines to
  /// keep ahead of this report's own — the merge path below.
  [[nodiscard]] std::string to_json(const std::string& prior = "") const {
    std::ostringstream os;
    os << "{\n  \"bench\": " << obs::json_string(bench_) << ",\n"
       << "  \"entries\": [\n";
    if (!prior.empty()) os << prior << (entries_.empty() ? "\n" : ",\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      os << entries_[i] << (i + 1 < entries_.size() ? ",\n" : "\n");
    }
    os << "  ]";
    if (have_metrics_) {
      os << ",\n  \"metrics\": {\n" << metrics_json_ << "\n  }";
    }
    os << "\n}\n";
    return os.str();
  }

  /// Writes BENCH_<bench>.json; returns the path, or "" on failure.
  /// With LOGPC_BENCH_MERGE set (non-empty), entries already in the file
  /// are preserved ahead of this report's — so two bench binaries (e.g.
  /// bench_service and bench_loadgen) can accumulate into one
  /// BENCH_throughput.json instead of the second overwriting the first.
  std::string write() const {
    const char* dir = std::getenv("LOGPC_BENCH_DIR");
    std::string path = dir && *dir ? std::string(dir) + "/" : std::string();
    path += "BENCH_" + bench_ + ".json";
    std::string prior;
    const char* merge = std::getenv("LOGPC_BENCH_MERGE");
    if (merge != nullptr && *merge != '\0') prior = prior_entries(path);
    std::ofstream out(path);
    if (!out) return "";
    out << to_json(prior);
    return out ? path : "";
  }

 private:
  /// The entry block of a previous JsonReport at `path` ("" when the file
  /// is absent or not in this writer's format).  Textual on purpose: the
  /// writer above fully controls the layout, so the entry lines between
  /// `"entries": [` and the closing `  ]` round-trip verbatim.
  static std::string prior_entries(const std::string& path) {
    std::ifstream in(path);
    if (!in) return "";
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const std::string open = "\"entries\": [\n";
    const std::size_t a = text.find(open);
    if (a == std::string::npos) return "";
    const std::size_t b = text.find("\n  ]", a);
    if (b == std::string::npos) return "";
    return text.substr(a + open.size(), b - (a + open.size()));
  }

  std::string bench_;
  std::vector<std::string> entries_;
  std::string metrics_json_;
  bool have_metrics_ = false;
};

/// Process-wide JsonReport slot.  A bench that wants BENCH_<name>.json
/// written without managing the object itself calls
/// `global_report("name")` and adds entries; LOGPC_BENCH_MAIN writes the
/// file (with a registry snapshot attached) after the microbenchmarks run,
/// so measurements from BENCHMARK() bodies can land in it too.
inline std::unique_ptr<JsonReport>& global_report_slot() {
  static std::unique_ptr<JsonReport> slot;
  return slot;
}

/// Opens (first call, which fixes the name) or returns the global report.
inline JsonReport& global_report(const std::string& bench_name) {
  auto& slot = global_report_slot();
  if (!slot) slot = std::make_unique<JsonReport>(bench_name);
  return *slot;
}

/// Write hook for LOGPC_BENCH_MAIN: no-op unless global_report() was used.
inline void write_global_report() {
  auto& slot = global_report_slot();
  if (!slot) return;
  slot->attach_metrics(obs::MetricsRegistry::global());
  const std::string path = slot->write();
  std::cout << (path.empty() ? "FAILED to write bench json"
                             : "bench json: " + path)
            << "\n";
  slot.reset();
}

/// Set by a report whose printed acceptance check failed: the bench
/// still runs to the end and writes its json, then LOGPC_BENCH_MAIN exits 1.
inline bool& gate_failed() {
  static bool failed = false;
  return failed;
}

}  // namespace logpc::bench

/// Standard bench main: print the reproduction report, run the
/// microbenchmarks, then flush the global JsonReport (if the bench opened
/// one).  Exits 1 when the report set bench::gate_failed().  Define
/// `void report();` before including via the LOGPC_BENCH_MAIN macro.
#define LOGPC_BENCH_MAIN(report_fn)                          \
  int main(int argc, char** argv) {                          \
    report_fn();                                             \
    ::benchmark::Initialize(&argc, argv);                    \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) \
      return 1;                                              \
    ::benchmark::RunSpecifiedBenchmarks();                   \
    ::benchmark::Shutdown();                                 \
    ::logpc::bench::write_global_report();                   \
    return ::logpc::bench::gate_failed() ? 1 : 0;            \
  }
