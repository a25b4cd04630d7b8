#include "runtime/plan_key.hpp"

#include <bit>
#include <charconv>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace logpc::runtime {

namespace {

/// Problems whose plan depends on the requested root; the others (fixed
/// source 0 or fully symmetric) normalize root to 0.
bool uses_root(Problem p) {
  return p == Problem::kBroadcast || p == Problem::kReduce;
}

/// Problems parameterized by an item / operand count.
bool uses_k(Problem p) {
  return p == Problem::kKItemBroadcast || p == Problem::kSummation ||
         p == Problem::kAllToAll;
}

}  // namespace

std::string_view problem_name(Problem p) {
  switch (p) {
    case Problem::kBroadcast:      return "broadcast";
    case Problem::kKItemBroadcast: return "kitem";
    case Problem::kReduce:         return "reduce";
    case Problem::kSummation:      return "summation";
    case Problem::kAllToAll:       return "alltoall";
  }
  return "unknown";
}

bool is_postal_problem(Problem p) { return p == Problem::kKItemBroadcast; }

PlanKey PlanKey::make(Problem problem, const Params& params, std::int64_t k,
                      ProcId root, std::uint64_t mask) {
  params.require_valid();
  // Each field is checked alone first, so L + 2o cannot overflow.
  if (params.L > kMaxMachineField || params.o > kMaxMachineField ||
      params.g > kMaxMachineField ||
      params.transfer_time() > kMaxMachineField) {
    throw std::invalid_argument(
        "PlanKey: L + 2o and g must each be <= 2^30 cycles");
  }
  if (k < 1) throw std::invalid_argument("PlanKey: k must be >= 1");
  // The k-item and all-to-all builders take k as an int.
  if ((problem == Problem::kKItemBroadcast || problem == Problem::kAllToAll) &&
      k > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("PlanKey: k must fit an int");
  }
  if (root < 0 || root >= params.P) {
    throw std::invalid_argument("PlanKey: root out of range");
  }
  PlanKey key;
  key.problem = problem;
  key.params = is_postal_problem(problem)
                   ? Params::postal(params.P, params.transfer_time())
                   : params;
  key.k = uses_k(problem) ? k : 1;
  key.root = uses_root(problem) ? root : 0;
  if (mask != 0) {
    if (params.P > 64) {
      throw std::invalid_argument(
          "PlanKey: membership masks require P <= 64");
    }
    const std::uint64_t full =
        params.P == 64 ? ~0ull : (1ull << params.P) - 1;
    if ((mask & ~full) != 0) {
      throw std::invalid_argument("PlanKey: mask has bits >= P set");
    }
    if (uses_root(problem) && ((mask >> key.root) & 1) == 0) {
      throw std::invalid_argument(
          "PlanKey: mask excludes the root of a rooted problem");
    }
    key.mask = mask == full ? 0 : mask;  // full membership is the fast path
  }
  return key;
}

PlanKey PlanKey::broadcast(const Params& p, ProcId root) {
  return make(Problem::kBroadcast, p, 1, root);
}
PlanKey PlanKey::kitem(const Params& p, std::int64_t k) {
  return make(Problem::kKItemBroadcast, p, k);
}
PlanKey PlanKey::segmented_broadcast(const Params& p, std::int64_t segments) {
  return kitem(p, segments);
}
PlanKey PlanKey::reduce(const Params& p, ProcId root) {
  return make(Problem::kReduce, p, 1, root);
}
PlanKey PlanKey::summation(const Params& p, std::int64_t n) {
  return make(Problem::kSummation, p, n);
}
PlanKey PlanKey::alltoall(const Params& p, std::int64_t k) {
  return make(Problem::kAllToAll, p, k);
}
PlanKey PlanKey::compacted() const {
  if (mask == 0) return *this;
  Params compact = params;
  compact.P = live_count();
  const std::uint64_t below_root = mask & ((1ull << root) - 1);
  return make(problem, compact, k,
              static_cast<ProcId>(std::popcount(below_root)));
}

std::string PlanKey::to_string() const {
  // Built with appends, not a stream: every cache miss formats it.
  std::string out(problem_name(problem));
  char buf[24];
  const auto num = [&out, &buf](auto v, int base = 10) {
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v, base).ptr);
  };
  out += "(";
  out += params.to_string();
  out += ", k=";
  num(k);
  out += ", root=";
  num(root);
  if (mask != 0) {
    out += ", mask=0x";
    num(mask, 16);
  }
  out += ")";
  return out;
}

std::size_t PlanKey::hash() const {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;  // FNV-1a prime
  };
  mix(static_cast<std::uint64_t>(problem));
  mix(static_cast<std::uint64_t>(params.P));
  mix(static_cast<std::uint64_t>(params.L));
  mix(static_cast<std::uint64_t>(params.o));
  mix(static_cast<std::uint64_t>(params.g));
  mix(static_cast<std::uint64_t>(k));
  mix(static_cast<std::uint64_t>(root));
  mix(mask);
  return static_cast<std::size_t>(h);
}

std::ostream& operator<<(std::ostream& os, const PlanKey& key) {
  return os << key.to_string();
}

}  // namespace logpc::runtime
