#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "logp/hier.hpp"
#include "logp/params.hpp"

/// \file plan_key.hpp
/// Canonical cache keys for the planning runtime.  A PlanKey pins down one
/// planning request — which collective, on which machine, with which size
/// arguments — normalized so every argument spelling that provably yields
/// the same plan maps to the same key:
///
///  * problems the paper states in the postal model (Section 3 k-item
///    broadcasts, Theorem 4.1 combining broadcast, the postal baselines)
///    fold the overheads into the effective hop latency L + 2o and store
///    the postal machine (g = 1, o = 0) — exactly the projection
///    api::Communicator applies before calling those builders;
///  * problems with a fixed or irrelevant source (k-item, summation,
///    all-to-all, all-reduce) normalize root to 0;
///  * problems that ignore the item count (single-item broadcast, scatter,
///    reduce, the tree baselines) normalize k to 1.
///
/// Keys hash and compare by value, so they drop straight into the sharded
/// cache (plan_cache.hpp) and the in-flight dedup map (planner.hpp).

namespace logpc::runtime {

/// Which schedule producer a key addresses.  The first block are the
/// paper's optimal constructions; the second are the src/baselines
/// comparators, so a tuning layer can price alternatives through the same
/// cache (examples/collective_planner.cpp does).
enum class Problem : std::uint8_t {
  kBroadcast = 0,           ///< Theorem 2.1 optimal single-item broadcast
  kKItemBroadcast,          ///< Section 3 single-sending k items (postal)
  kBufferedKItemBroadcast,  ///< Theorem 3.8 buffered k items (postal)
  kScatter,                 ///< one distinct item from the root to each proc
  kGather,                  ///< one distinct item from each proc to the root
  kReduce,                  ///< Section 4.2 message reduction
  kSummation,               ///< Section 5 summation; k = operand count n
  kAllToAll,                ///< Section 4.1 rotation; k items per processor
  kAllToAllPersonalized,    ///< same rotation, distinct item per destination
  kAllReduce,               ///< Theorem 4.1 combining broadcast (postal)
  // --- baselines (src/baselines) ---------------------------------------
  kBinomialBroadcast,
  kBinaryBroadcast,
  kChainBroadcast,
  kFlatBroadcast,
  kSerializedKItem,         ///< k * B(P) strawman (postal)
  kPipelinedBinaryKItem,    ///< pipelined fixed binary tree (postal)
  kPipelinedChainKItem,     ///< pipelined chain (postal)
  // --- topology-aware (src/bcast/hierarchical) --------------------------
  /// Two-level broadcast on the uniform hierarchical machine: `params`
  /// carries the intra-cluster class (P = total ranks), the key's topology
  /// fields the cluster count and cross-cluster class.  Appended last so
  /// older snapshots' numeric problem ids stay stable.
  kHierarchicalBroadcast,
};

/// Number of Problem enumerators (snapshot loading validates against it).
inline constexpr int kNumProblems =
    static_cast<int>(Problem::kHierarchicalBroadcast) + 1;

/// Stable short name ("kitem", "allreduce", ...) for logs and key strings.
[[nodiscard]] std::string_view problem_name(Problem p);

/// True iff `p` is stated in the postal model, i.e. its key normalizes the
/// machine to Params::postal(P, L + 2o).
[[nodiscard]] bool is_postal_problem(Problem p);

struct PlanKey {
  Problem problem = Problem::kBroadcast;
  Params params;       ///< canonical machine (postal-projected when due)
  std::int64_t k = 1;  ///< item / operand count (1 when irrelevant)
  ProcId root = 0;     ///< source or destination (0 when irrelevant)
  /// Membership mask: bit r set means physical rank r participates.  0 is
  /// the common fast path meaning "all P ranks".  A non-zero mask (the
  /// recovery layer's degraded re-plan over the survivors of a rank
  /// failure) requires P <= 64, every set bit < P, and — for rooted
  /// problems — the root bit set; an all-ones mask normalizes back to 0 so
  /// the degenerate spelling cannot split the cache.
  ///
  /// HARD LIMIT: this is a single 64-bit word, so masked (fault-tolerant)
  /// keys exist only for P <= 64.  `make` rejects mask != 0 with P > 64
  /// (std::invalid_argument) rather than silently dropping ranks >= 64, and
  /// the accessors below re-check so a hand-assembled key that bypassed
  /// `make` faults fast instead of shifting past the word.  Machines larger
  /// than 64 ranks plan full-membership keys only (mask == 0) — large-P
  /// paths (e.g. the implicit planner) are unaffected since they never
  /// mask.  Widening this to a rank-set type is the extension point if FT
  /// replan is ever needed past 64 ranks.
  std::uint64_t mask = 0;

  /// Topology extension, meaningful only for kHierarchicalBroadcast (zero
  /// for every other problem, so flat keys hash and compare exactly as
  /// before): the cluster count of the *uniform* hierarchical machine
  /// (HierParams::uniform — C balanced contiguous blocks; a general
  /// rank->cluster map cannot live in a fixed-size key) and the
  /// cross-cluster link class.  `params` carries the intra class with
  /// params.P = total ranks.  Normalizations in make(): clusters <= 1
  /// degenerates to kBroadcast on the intra machine, clusters == P (all
  /// singletons, intra links never used) to kBroadcast on the cross
  /// machine.  Membership masks are rejected for hierarchical keys — the
  /// recovery layer is topology-blind.
  std::int32_t clusters = 0;
  Time cross_L = 0;
  Time cross_o = 0;
  Time cross_g = 0;

  /// Builds the canonical key for a request stated on the *physical*
  /// machine `params` (normalization applied here).  Throws
  /// std::invalid_argument for an invalid machine, a root out of range,
  /// k < 1, an ill-formed membership mask, or an ill-formed topology.
  /// Idempotent: make(key.problem, key.params, key.k, key.root, key.mask,
  /// key.clusters, key.cross_L, key.cross_o, key.cross_g) returns the key
  /// unchanged.
  [[nodiscard]] static PlanKey make(Problem problem, const Params& params,
                                    std::int64_t k = 1, ProcId root = 0,
                                    std::uint64_t mask = 0,
                                    std::int32_t clusters = 0,
                                    Time cross_L = 0, Time cross_o = 0,
                                    Time cross_g = 0);

  /// The canonical key for a two-level broadcast on the uniform
  /// hierarchical machine `h`.  Throws std::invalid_argument when `h` is
  /// invalid or not the uniform() spelling (is_uniform_blocks()).
  [[nodiscard]] static PlanKey hierarchical(const HierParams& h,
                                            ProcId root = 0);

  /// Reconstructs the uniform hierarchical machine of a
  /// kHierarchicalBroadcast key; throws std::logic_error for other
  /// problems.
  [[nodiscard]] HierParams hier_params() const;

  /// Participating ranks: popcount of the mask, or P when the mask is 0.
  /// Throws std::logic_error for a hand-assembled key whose mask cannot
  /// cover the machine (mask != 0 with P > 64) — see the mask field's note.
  [[nodiscard]] int live_count() const {
    if (mask != 0 && params.P > 64) {
      throw std::logic_error(
          "PlanKey: membership masks require P <= 64");
    }
    return mask == 0 ? params.P : std::popcount(mask);
  }

  /// Participating physical ranks in increasing order.  Index i of this
  /// vector is the plan's processor i: the masked plan is built on the
  /// compacted machine of live_count() processors, and this is the map
  /// from plan (virtual) ranks back to physical ones.
  [[nodiscard]] std::vector<ProcId> live_ranks() const {
    std::vector<ProcId> out;
    out.reserve(static_cast<std::size_t>(live_count()));
    if (mask == 0) {
      for (ProcId r = 0; r < params.P; ++r) out.push_back(r);
    } else {
      for (ProcId r = 0; r < params.P; ++r) {
        if ((mask >> r) & 1) out.push_back(r);
      }
    }
    return out;
  }

  /// The full-membership key of the machine a masked key plans on: the
  /// live_count() survivors, renumbered in increasing physical order (so
  /// the root becomes the number of live ranks below it).  *this when the
  /// mask is 0.
  [[nodiscard]] PlanKey compacted() const;

  // Conveniences mirroring the api::Communicator surface.
  [[nodiscard]] static PlanKey broadcast(const Params& p, ProcId root = 0);
  [[nodiscard]] static PlanKey kitem(const Params& p, std::int64_t k);
  /// The segment-count-extended broadcast key the serving layer's
  /// segmented pipeline resolves through: a payload split into `segments`
  /// pieces is exactly a Section 3 single-sending k-item broadcast with
  /// k = segments, so the key is kitem's (postal projection, root
  /// normalized to 0 — the executable lowering swaps ranks for other
  /// roots).  Spelling it this way keeps one cache entry per (machine,
  /// segment count) shared between the bench harnesses and the service.
  [[nodiscard]] static PlanKey segmented_broadcast(const Params& p,
                                                   std::int64_t segments);
  [[nodiscard]] static PlanKey kitem_buffered(const Params& p,
                                              std::int64_t k);
  [[nodiscard]] static PlanKey scatter(const Params& p, ProcId root = 0);
  [[nodiscard]] static PlanKey gather(const Params& p, ProcId root = 0);
  [[nodiscard]] static PlanKey reduce(const Params& p, ProcId root = 0);
  [[nodiscard]] static PlanKey summation(const Params& p, std::int64_t n);
  [[nodiscard]] static PlanKey alltoall(const Params& p, std::int64_t k = 1);
  [[nodiscard]] static PlanKey alltoall_personalized(const Params& p);
  [[nodiscard]] static PlanKey allreduce(const Params& p);

  /// "kitem(P=16 L=10 o=0 g=1, k=8, root=0)" — for logs and diagnostics.
  [[nodiscard]] std::string to_string() const;

  /// FNV-1a over every field; stable within a process run.
  [[nodiscard]] std::size_t hash() const;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

/// Hasher for unordered containers keyed by PlanKey.
struct PlanKeyHash {
  [[nodiscard]] std::size_t operator()(const PlanKey& key) const {
    return key.hash();
  }
};

std::ostream& operator<<(std::ostream& os, const PlanKey& key);

}  // namespace logpc::runtime
