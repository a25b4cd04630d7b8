#include "runtime/plan_key.hpp"

#include <bit>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace logpc::runtime {

namespace {

/// Problems whose plan ignores the requested root (fixed source 0 or fully
/// symmetric), so the key normalizes root to 0.
bool uses_root(Problem p) {
  switch (p) {
    case Problem::kBroadcast:
    case Problem::kScatter:
    case Problem::kGather:
    case Problem::kReduce:
    case Problem::kBinomialBroadcast:
    case Problem::kBinaryBroadcast:
    case Problem::kChainBroadcast:
    case Problem::kFlatBroadcast:
    case Problem::kHierarchicalBroadcast:
      return true;
    default:
      return false;
  }
}

/// Problems parameterized by an item / operand count.
bool uses_k(Problem p) {
  switch (p) {
    case Problem::kKItemBroadcast:
    case Problem::kBufferedKItemBroadcast:
    case Problem::kSummation:
    case Problem::kAllToAll:
    case Problem::kSerializedKItem:
    case Problem::kPipelinedBinaryKItem:
    case Problem::kPipelinedChainKItem:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string_view problem_name(Problem p) {
  switch (p) {
    case Problem::kBroadcast:              return "broadcast";
    case Problem::kKItemBroadcast:         return "kitem";
    case Problem::kBufferedKItemBroadcast: return "kitem-buffered";
    case Problem::kScatter:                return "scatter";
    case Problem::kGather:                 return "gather";
    case Problem::kReduce:                 return "reduce";
    case Problem::kSummation:              return "summation";
    case Problem::kAllToAll:               return "alltoall";
    case Problem::kAllToAllPersonalized:   return "alltoall-personalized";
    case Problem::kAllReduce:              return "allreduce";
    case Problem::kBinomialBroadcast:      return "binomial-broadcast";
    case Problem::kBinaryBroadcast:        return "binary-broadcast";
    case Problem::kChainBroadcast:         return "chain-broadcast";
    case Problem::kFlatBroadcast:          return "flat-broadcast";
    case Problem::kSerializedKItem:        return "serialized-kitem";
    case Problem::kPipelinedBinaryKItem:   return "pipelined-binary-kitem";
    case Problem::kPipelinedChainKItem:    return "pipelined-chain-kitem";
    case Problem::kHierarchicalBroadcast:  return "hierarchical-broadcast";
  }
  return "unknown";
}

bool is_postal_problem(Problem p) {
  switch (p) {
    case Problem::kKItemBroadcast:
    case Problem::kBufferedKItemBroadcast:
    case Problem::kAllReduce:
    case Problem::kSerializedKItem:
    case Problem::kPipelinedBinaryKItem:
    case Problem::kPipelinedChainKItem:
      return true;
    default:
      return false;
  }
}

PlanKey PlanKey::make(Problem problem, const Params& params, std::int64_t k,
                      ProcId root, std::uint64_t mask, std::int32_t clusters,
                      Time cross_L, Time cross_o, Time cross_g) {
  params.require_valid();
  if (k < 1) throw std::invalid_argument("PlanKey: k must be >= 1");
  if (root < 0 || root >= params.P) {
    throw std::invalid_argument("PlanKey: root out of range");
  }
  if (problem == Problem::kHierarchicalBroadcast) {
    if (clusters < 1 || clusters > params.P) {
      throw std::invalid_argument(
          "PlanKey: hierarchical keys need clusters in [1, P]");
    }
    if (mask != 0) {
      throw std::invalid_argument(
          "PlanKey: membership masks are topology-blind; no masked "
          "hierarchical keys");
    }
    Params cross;
    cross.P = clusters;
    cross.L = cross_L;
    cross.o = cross_o;
    cross.g = cross_g;
    cross.require_valid();
    // Degenerate topologies fold into the flat optimal problem: a single
    // cluster never uses a cross link, all-singleton clusters never use an
    // intra link — either way the plan is the Theorem 2.1 tree on the one
    // live class, so the key must not split the cache from kBroadcast's.
    if (clusters == 1) {
      return make(Problem::kBroadcast, params, 1, root);
    }
    if (clusters == params.P) {
      Params flat_cross = cross;
      flat_cross.P = params.P;
      return make(Problem::kBroadcast, flat_cross, 1, root);
    }
  } else if (clusters != 0 || cross_L != 0 || cross_o != 0 || cross_g != 0) {
    throw std::invalid_argument(
        "PlanKey: topology fields are exclusive to kHierarchicalBroadcast");
  }
  PlanKey key;
  key.problem = problem;
  key.params = is_postal_problem(problem)
                   ? Params::postal(params.P, params.transfer_time())
                   : params;
  key.k = uses_k(problem) ? k : 1;
  key.root = uses_root(problem) ? root : 0;
  if (problem == Problem::kHierarchicalBroadcast) {
    key.clusters = clusters;
    key.cross_L = cross_L;
    key.cross_o = cross_o;
    key.cross_g = cross_g;
  }
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
PlanKey PlanKey::kitem_buffered(const Params& p, std::int64_t k) {
  return make(Problem::kBufferedKItemBroadcast, p, k);
}
PlanKey PlanKey::scatter(const Params& p, ProcId root) {
  return make(Problem::kScatter, p, 1, root);
}
PlanKey PlanKey::gather(const Params& p, ProcId root) {
  return make(Problem::kGather, p, 1, root);
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
PlanKey PlanKey::alltoall_personalized(const Params& p) {
  return make(Problem::kAllToAllPersonalized, p);
}
PlanKey PlanKey::allreduce(const Params& p) {
  return make(Problem::kAllReduce, p);
}
PlanKey PlanKey::hierarchical(const HierParams& h, ProcId root) {
  h.require_valid();
  if (!h.is_uniform_blocks()) {
    throw std::invalid_argument(
        "PlanKey: only the uniform balanced-block topology "
        "(HierParams::uniform) is cache-keyable");
  }
  return make(Problem::kHierarchicalBroadcast, h.intra, 1, root, 0,
              h.num_clusters(), h.cross.L, h.cross.o, h.cross.g);
}

HierParams PlanKey::hier_params() const {
  if (problem != Problem::kHierarchicalBroadcast) {
    throw std::logic_error("PlanKey: not a hierarchical key");
  }
  Params cross;
  cross.P = clusters;
  cross.L = cross_L;
  cross.o = cross_o;
  cross.g = cross_g;
  return HierParams::uniform(params.P, clusters, params, cross);
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
  std::ostringstream os;
  os << *this;
  return os.str();
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
  mix(static_cast<std::uint64_t>(clusters));
  mix(static_cast<std::uint64_t>(cross_L));
  mix(static_cast<std::uint64_t>(cross_o));
  mix(static_cast<std::uint64_t>(cross_g));
  return static_cast<std::size_t>(h);
}

std::ostream& operator<<(std::ostream& os, const PlanKey& key) {
  os << problem_name(key.problem) << "(" << key.params << ", k=" << key.k
     << ", root=" << key.root;
  if (key.mask != 0) {
    os << ", mask=0x" << std::hex << key.mask << std::dec;
  }
  if (key.clusters != 0) {
    os << ", clusters=" << key.clusters << ", cross(L=" << key.cross_L
       << " o=" << key.cross_o << " g=" << key.cross_g << ")";
  }
  os << ")";
  return os;
}

}  // namespace logpc::runtime
