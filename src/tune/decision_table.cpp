#include "tune/decision_table.hpp"

#include <bit>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace logpc::tune {

namespace {

// Same wire idiom as the plan snapshot (runtime/snapshot.cpp): versioned
// magic header, then little-endian i64 fields.  v1 writes one record per
// entry: collective, P, size_class, problem, segments, clusters, cross
// (L, o, g), then win/runner-up medians as nanosecond integers (the
// sub-nanosecond part of a median is noise, not signal).
constexpr char kHeader[] = "logpc-tunesnap v1\n";
constexpr std::size_t kHeaderLen = 18;

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("decision table snapshot: " + what);
}

void put_i64(std::ostream& os, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((u >> (8 * i)) & 0xff);
  }
  os.write(bytes, 8);
}

std::int64_t get_i64(std::istream& is) {
  char bytes[8];
  if (!is.read(bytes, 8)) fail("truncated input");
  std::uint64_t u = 0;
  for (int i = 0; i < 8; ++i) {
    u |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
         << (8 * i);
  }
  return static_cast<std::int64_t>(u);
}

/// The families auto_tune can record; tuned_key can serve exactly these.
bool is_tunable(runtime::Problem p) {
  using runtime::Problem;
  return p == Problem::kBroadcast || p == Problem::kBinomialBroadcast ||
         p == Problem::kBinaryBroadcast || p == Problem::kChainBroadcast ||
         p == Problem::kHierarchicalBroadcast ||
         p == Problem::kKItemBroadcast;
}

/// A median the i64 wire form round-trips exactly (NaN fails both tests).
bool is_timing(double ns) { return ns >= 0 && ns < 0x1p63; }

/// A stored i64 that must fit `T` before it is narrowed.
template <typename T>
T narrow(std::int64_t v, const char* field) {
  if (!std::in_range<T>(v)) fail(std::string(field) + " out of range");
  return static_cast<T>(v);
}

}  // namespace

std::string_view collective_name(Collective c) {
  switch (c) {
    case Collective::kBroadcast:
      return "broadcast";
  }
  return "unknown";
}

int size_class_of(std::size_t bytes) {
  if (bytes <= 1) return 0;
  return static_cast<int>(std::bit_width(bytes - 1));
}

std::size_t size_class_bytes(int size_class) {
  if (size_class < 0 || size_class > 63) {
    throw std::invalid_argument("size_class_bytes: class outside [0, 63]");
  }
  return std::size_t{1} << size_class;
}

void DecisionTable::set(const DecisionKey& key, const Decision& decision) {
  if (static_cast<int>(key.collective) >= kNumCollectives) {
    throw std::invalid_argument("DecisionTable: unknown collective");
  }
  if (key.P < 1) throw std::invalid_argument("DecisionTable: P must be >= 1");
  if (key.size_class < 0 || key.size_class > 63) {
    throw std::invalid_argument(
        "DecisionTable: size_class outside [0, 63]");
  }
  if (!is_tunable(decision.problem)) {
    throw std::invalid_argument(
        "DecisionTable: winner is not a broadcast family the tuner records");
  }
  const bool segmented =
      decision.problem == runtime::Problem::kKItemBroadcast;
  if (segmented ? decision.segments < 2 : decision.segments != 1) {
    throw std::invalid_argument(
        "DecisionTable: segments must be >= 2 for the segmented pipeline "
        "and 1 for every other family");
  }
  if (!is_timing(decision.win_ns) || !is_timing(decision.runner_up_ns)) {
    throw std::invalid_argument("DecisionTable: timing outside [0, 2^63) ns");
  }
  const bool hier =
      decision.problem == runtime::Problem::kHierarchicalBroadcast;
  const Params cross{decision.clusters, decision.cross_L, decision.cross_o,
                     decision.cross_g};
  if (hier && (decision.clusters < 2 || decision.clusters > key.P ||
               !cross.valid())) {
    throw std::invalid_argument(
        "DecisionTable: hierarchical winner needs clusters in [2, P] and a "
        "valid cross-cluster machine");
  }
  if (!hier && (decision.clusters != 0 || decision.cross_L != 0 ||
                decision.cross_o != 0 || decision.cross_g != 0)) {
    throw std::invalid_argument(
        "DecisionTable: topology fields on a non-hierarchical winner");
  }
  entries_[key] = decision;
}

const Decision* DecisionTable::find(Collective collective, int P,
                                    std::size_t bytes) const {
  const int wanted = size_class_of(bytes);
  // Candidates straddle `wanted` within the same (collective, P): the
  // first tuned class at or above it, and the last below it.
  const DecisionKey probe{collective, P, wanted};
  const auto at_or_above = entries_.lower_bound(probe);
  const Decision* above = nullptr;
  int above_class = 0;
  if (at_or_above != entries_.end() &&
      at_or_above->first.collective == collective &&
      at_or_above->first.P == P) {
    above = &at_or_above->second;
    above_class = at_or_above->first.size_class;
    if (above_class == wanted) return above;
  }
  const Decision* below = nullptr;
  int below_class = 0;
  if (at_or_above != entries_.begin()) {
    const auto prev = std::prev(at_or_above);
    if (prev->first.collective == collective && prev->first.P == P) {
      below = &prev->second;
      below_class = prev->first.size_class;
    }
  }
  if (below && above) {
    // Ties snap down: the smaller class's winner was measured closer to
    // this payload's regime more often than not.
    return (wanted - below_class) <= (above_class - wanted) ? below : above;
  }
  return below ? below : above;
}

const Decision* DecisionTable::find_class(const DecisionKey& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void DecisionTable::save(std::ostream& os) const {
  os.write(kHeader, kHeaderLen);
  put_i64(os, static_cast<std::int64_t>(entries_.size()));
  for (const auto& [key, d] : entries_) {
    put_i64(os, static_cast<std::int64_t>(key.collective));
    put_i64(os, key.P);
    put_i64(os, key.size_class);
    put_i64(os, static_cast<std::int64_t>(d.problem));
    put_i64(os, d.segments);
    put_i64(os, d.clusters);
    put_i64(os, d.cross_L);
    put_i64(os, d.cross_o);
    put_i64(os, d.cross_g);
    put_i64(os, static_cast<std::int64_t>(d.win_ns));
    put_i64(os, static_cast<std::int64_t>(d.runner_up_ns));
  }
  if (!os) throw std::runtime_error("decision table snapshot: write failed");
}

void DecisionTable::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw std::runtime_error("decision table snapshot: cannot write " + path);
  }
  save(os);
  os.flush();
  if (!os) {
    throw std::runtime_error("decision table snapshot: write failed: " + path);
  }
}

DecisionTable DecisionTable::load(std::istream& is) {
  char header[kHeaderLen];
  if (!is.read(header, kHeaderLen)) fail("bad header");
  if (std::string(header, kHeaderLen) != std::string(kHeader, kHeaderLen)) {
    fail("bad header");
  }
  const std::int64_t count = get_i64(is);
  if (count < 0) fail("negative entry count");
  DecisionTable table;
  for (std::int64_t i = 0; i < count; ++i) {
    DecisionKey key;
    const std::int64_t collective = get_i64(is);
    if (collective < 0 || collective >= kNumCollectives) {
      fail("unknown collective");
    }
    key.collective = static_cast<Collective>(collective);
    key.P = narrow<int>(get_i64(is), "P");
    key.size_class = narrow<int>(get_i64(is), "size class");
    Decision d;
    const std::int64_t problem = get_i64(is);
    if (problem < 0 || problem >= runtime::kNumProblems) {
      fail("unknown problem id");
    }
    d.problem = static_cast<runtime::Problem>(problem);
    d.segments = narrow<std::int32_t>(get_i64(is), "segments");
    d.clusters = narrow<std::int32_t>(get_i64(is), "clusters");
    d.cross_L = get_i64(is);
    d.cross_o = get_i64(is);
    d.cross_g = get_i64(is);
    d.win_ns = static_cast<double>(get_i64(is));
    d.runner_up_ns = static_cast<double>(get_i64(is));
    try {
      // Reuse set()'s validation: a corrupt record must not enter the
      // table under a plausible key.
      table.set(key, d);
    } catch (const std::invalid_argument& e) {
      fail(std::string("bad entry: ") + e.what());
    }
  }
  return table;
}

DecisionTable DecisionTable::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("decision table snapshot: cannot read " + path);
  }
  return load(is);
}

}  // namespace logpc::tune
