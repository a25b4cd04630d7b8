#include "runtime/snapshot.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/planner.hpp"

namespace logpc::runtime {

namespace {

// One format: the header, then little-endian i64 fields — the entry count,
// per entry the eight canonical key fields, and a 64-bit FNV-1a checksum
// over every byte after the header.  FNV-1a's step (h ^ byte) * prime is a
// bijection on h, so any same-length change to the bytes — every single-bit
// flip included — changes the checksum.
constexpr char kHeader[] = "logpc-plansnap v7\n";
constexpr std::size_t kHeaderLen = 18;
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("plan snapshot: " + what);
}

/// Folds 8 wire bytes into the running FNV-1a checksum `sum`.
void fold(std::uint64_t& sum, const char (&bytes)[8]) {
  for (const char c : bytes) {
    sum = (sum ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
}

void put_i64(std::ostream& os, std::uint64_t& sum, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((u >> (8 * i)) & 0xff);
  }
  fold(sum, bytes);
  os.write(bytes, 8);
}

std::int64_t get_i64(std::istream& is, std::uint64_t& sum) {
  char bytes[8];
  if (!is.read(bytes, 8)) fail("truncated input");
  fold(sum, bytes);
  std::uint64_t u = 0;
  for (int i = 0; i < 8; ++i) {
    u |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
         << (8 * i);
  }
  return static_cast<std::int64_t>(u);
}

/// A stored field narrowed to `T` only after it is checked to fit.
template <typename T>
T get_as(std::istream& is, std::uint64_t& sum, const char* field) {
  const std::int64_t v = get_i64(is, sum);
  if (!std::in_range<T>(v)) fail(std::string(field) + " out of range");
  return static_cast<T>(v);
}

PlanKey read_key(std::istream& is, std::uint64_t& sum) {
  PlanKey key;
  const std::int64_t problem = get_i64(is, sum);
  if (problem < 0 || problem >= kNumProblems) fail("unknown problem id");
  key.problem = static_cast<Problem>(problem);
  key.params.P = get_as<int>(is, sum, "P");
  key.params.L = get_i64(is, sum);
  key.params.o = get_i64(is, sum);
  key.params.g = get_i64(is, sum);
  key.k = get_i64(is, sum);
  key.root = get_as<ProcId>(is, sum, "root");
  key.mask = static_cast<std::uint64_t>(get_i64(is, sum));
  return key;
}

}  // namespace

std::size_t save_snapshot(const PlanCache& cache, std::ostream& os) {
  // entries() is MRU-first per shard; write the reverse so loading replays
  // oldest first and ends with the hottest plans most recent.
  std::vector<PlanPtr> plans = cache.entries();
  std::reverse(plans.begin(), plans.end());
  os.write(kHeader, kHeaderLen);
  std::uint64_t sum = kFnvOffset;
  put_i64(os, sum, static_cast<std::int64_t>(plans.size()));
  for (const PlanPtr& plan : plans) {
    const PlanKey& key = plan->key;
    for (const std::int64_t field :
         {static_cast<std::int64_t>(key.problem), std::int64_t{key.params.P},
          key.params.L, key.params.o, key.params.g, key.k,
          std::int64_t{key.root}, static_cast<std::int64_t>(key.mask)}) {
      put_i64(os, sum, field);
    }
  }
  put_i64(os, sum, static_cast<std::int64_t>(sum));
  return plans.size();
}

std::size_t save_snapshot(const PlanCache& cache, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("plan snapshot: cannot write " + path);
  const std::size_t n = save_snapshot(cache, os);
  os.flush();
  if (!os) throw std::runtime_error("plan snapshot: write failed: " + path);
  return n;
}

std::size_t load_snapshot(PlanCache& cache, std::istream& is) {
  char header[kHeaderLen];
  if (!is.read(header, kHeaderLen) ||
      std::string_view(header, kHeaderLen) != kHeader) {
    fail("bad header");
  }
  std::uint64_t sum = kFnvOffset;
  const std::int64_t count = get_i64(is, sum);
  if (count < 0) fail("negative entry count");
  // Grows with the bytes actually read, never with the stored count.
  std::vector<PlanKey> keys;
  for (std::int64_t i = 0; i < count; ++i) keys.push_back(read_key(is, sum));
  const auto expected = static_cast<std::int64_t>(sum);
  if (get_i64(is, sum) != expected) fail("checksum mismatch");

  // PlanKey::make bounds the machine fields before any arithmetic on
  // them, so a resealed key with a huge L or o is rejected, not overflowed.
  for (const PlanKey& key : keys) {
    PlanKey canonical;
    try {
      canonical =
          PlanKey::make(key.problem, key.params, key.k, key.root, key.mask);
    } catch (const std::invalid_argument& e) {
      fail(std::string("bad key: ") + e.what());
    }
    if (canonical != key) fail("key not canonical");
  }
  // Every plan is built before any is published, so a load that throws
  // leaves the cache untouched.
  std::vector<PlanPtr> plans;
  for (const PlanKey& key : keys) {
    plans.push_back(std::make_shared<const Plan>(Planner::build_uncached(key)));
  }
  for (const PlanPtr& plan : plans) cache.put(plan->key, plan);
  return plans.size();
}

std::size_t load_snapshot(PlanCache& cache, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("plan snapshot: cannot read " + path);
  return load_snapshot(cache, is);
}

}  // namespace logpc::runtime
