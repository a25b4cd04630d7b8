#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "exec/kernels.hpp"
#include "logp/params.hpp"
#include "runtime/plan_key.hpp"
#include "svc/request.hpp"

/// \file workloads.hpp
/// Everything the benchmark derives from its seed: the request streams of
/// the service workloads, the payloads they carry with the outputs they
/// must produce, and the key set of the planning sweep.  The service sees
/// only the generated requests; nothing here reads a clock.

namespace perfbench {

namespace svc = logpc::svc;
namespace exec = logpc::exec;
namespace runtime = logpc::runtime;

/// splitmix64.  Fully specified, unlike the std:: distributions, whose
/// output may differ between standard libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t s_;
};

/// The machine every service workload runs on.
inline constexpr int kP = 8;
inline logpc::Params service_machine() { return logpc::Params{kP, 4, 1, 2}; }

enum class Workload : std::uint8_t { kSoloSmall, kFusedMix, kLargeBcast, kPlanSweep };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

// --- service workloads ------------------------------------------------------

enum class Shape : std::uint8_t {
  kBcast64Batch,
  kBcast64Interactive,
  kBcast4KBatch,
  kReduce256,      ///< batch f64-sum reduce, 256 B per rank
  kAllgather64,    ///< batch allgather, 64 B per rank
  kBcast1MBatch,
};
inline constexpr int kNumShapes = 6;

struct ShapeInfo {
  const char* name;
  svc::OpKind op;
  svc::QoS qos;
  std::size_t bytes;  ///< payload, or per-rank value size
};
[[nodiscard]] const ShapeInfo& shape_info(Shape s);

struct MixEntry {
  Shape shape;
  double share;
};
/// The workload's request mix; empty for kPlanSweep.
[[nodiscard]] std::vector<MixEntry> request_mix(Workload w);

/// Distinct pre-built inputs per shape; a request names one of them.
inline constexpr std::uint32_t kVariants = 8;

struct RequestSpec {
  Shape shape = Shape::kBcast64Batch;
  std::uint32_t variant = 0;
  friend bool operator==(const RequestSpec&, const RequestSpec&) = default;
};

/// One virtual caller's seeded request sequence.
class RequestStream {
 public:
  RequestStream(Workload w, std::uint64_t seed, std::uint32_t caller);
  RequestSpec next();

 private:
  std::vector<MixEntry> mix_;
  Rng rng_;
};

/// A request's inputs and the output a correct run must produce.
struct Input {
  exec::Bytes payload;               ///< broadcast item
  std::vector<exec::Bytes> values;   ///< reduce / allgather, one per rank
  exec::Bytes expected_sum;          ///< reduce: f64 sum, computed here
};

/// Inputs for every shape of a workload's mix, kVariants each.  Reduce
/// operands are small integers stored as f64, so the sum is exact in any
/// fold order and a correct run matches it bit for bit.
class InputPool {
 public:
  InputPool(Workload w, std::uint64_t seed);
  [[nodiscard]] const Input& at(const RequestSpec& r) const;
  [[nodiscard]] svc::Request request(const RequestSpec& r) const;
  /// True iff `response` carries the output `r` must produce.
  [[nodiscard]] bool verify(const RequestSpec& r,
                            const svc::Response& response) const;

 private:
  std::vector<std::vector<Input>> inputs_;  ///< [shape][variant]
};

/// Payload bytes that reach non-root ranks for one request of `s`.
[[nodiscard]] double delivered_bytes(Shape s);

// --- planning sweep -----------------------------------------------------------

enum class Family : std::uint8_t { kBcast, kReduce, kKItem, kAllgather, kSummation };
inline constexpr int kNumFamilies = 5;
[[nodiscard]] const char* family_name(Family f);

struct SweepKey {
  Family family = Family::kBcast;
  runtime::PlanKey key;     ///< canonical key
  logpc::Params machine;    ///< the physical machine it was stated on
  runtime::Problem problem = runtime::Problem::kBroadcast;
  std::int64_t k = 1;
  logpc::ProcId root = 0;
  bool compile = false;     ///< executable and P <= kCompileMaxP
};

inline constexpr int kCompileMaxP = 1024;

/// `count` distinct keys, stratified per family so every seed covers each
/// family's P range evenly: broadcast and reduce with P log-uniform in
/// [8, 2^20], k-item with P in [8, 64] and k in [2, 16], allgather with
/// P <= 128, summation with P <= 64 and n <= 4096.  The k-item machines
/// stay clear of the known planning cliffs (see perfbench/README.md).
[[nodiscard]] std::vector<SweepKey> sweep_keys(std::uint64_t seed,
                                               std::size_t count);

}  // namespace perfbench
