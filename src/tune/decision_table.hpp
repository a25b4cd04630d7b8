#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "runtime/plan_key.hpp"

/// \file decision_table.hpp
/// The persisted output of the auto-tuner (tune/tuner.hpp): per
/// (collective, P, payload-size segment), which schedule family measured
/// fastest on *this* hardware.  Barchet-Estefanel & Mounié
/// (arXiv:cs/0408034) observed that measured collective performance
/// splits into message-size segments with a different winner per segment,
/// so one cheap offline tuning pass beats any single fixed algorithm —
/// this table is that pass's artifact.
///
/// Size segments are powers of two: a payload of `bytes` falls in class
/// ceil(log2(bytes)) (class 0 covers 0- and 1-byte payloads).  Lookups for
/// an untuned class snap to the nearest tuned class of the same
/// (collective, P) — ties toward the smaller class — so a sparse tuned
/// grid still covers the whole size axis.
///
/// The table is immutable once built (build it, then share it as a
/// shared_ptr<const DecisionTable>; runtime::Planner consumes it that
/// way), and persists as a binary snapshot: little-endian i64 fields
/// behind a versioned magic header.  Unlike a plan snapshot
/// (runtime/snapshot.hpp), which stores keys and rebuilds, this one holds
/// measured data no key determines, so load() range-checks every field
/// before narrowing it and re-validates every entry through set().

namespace logpc::tune {

/// Which collective a decision governs.  Only broadcast is tuned today;
/// the enum (and the snapshot format) leave room for the rest.
enum class Collective : std::uint8_t {
  kBroadcast = 0,
};
inline constexpr int kNumCollectives = 1;

[[nodiscard]] std::string_view collective_name(Collective c);

/// ceil(log2(bytes)): the power-of-two size segment `bytes` falls in
/// (class 0 holds 0- and 1-byte payloads).
[[nodiscard]] int size_class_of(std::size_t bytes);

/// The largest payload of `size_class` (2^size_class bytes) — the
/// representative size the tuner benchmarks for the class.
[[nodiscard]] std::size_t size_class_bytes(int size_class);

struct DecisionKey {
  Collective collective = Collective::kBroadcast;
  int P = 0;
  int size_class = 0;

  friend auto operator<=>(const DecisionKey&, const DecisionKey&) = default;
};

/// The measured winner for one segment, with enough of the runner-up to
/// judge the margin (a near-tie is a candidate for re-tuning).
struct Decision {
  /// Winning family.  kKItemBroadcast means the segmented pipeline
  /// (`segments` > 1); kHierarchicalBroadcast carries its topology in
  /// `clusters` + `cross_*` so the planner can rebuild the key.
  runtime::Problem problem = runtime::Problem::kBroadcast;
  std::int32_t segments = 1;
  std::int32_t clusters = 0;
  Time cross_L = 0;
  Time cross_o = 0;
  Time cross_g = 0;
  double win_ns = 0;        ///< winner's median wall time
  double runner_up_ns = 0;  ///< best non-winner median (0 = uncontested)

  friend bool operator==(const Decision&, const Decision&) = default;
};

class DecisionTable {
 public:
  /// Inserts or replaces the decision for `key`.  Throws
  /// std::invalid_argument for an ill-formed key or decision: P < 1,
  /// size_class outside [0, 63], a winner outside the six families the
  /// tuner records (kBroadcast, the binomial, binary and chain baselines,
  /// kHierarchicalBroadcast, kKItemBroadcast), segments < 2 for
  /// kKItemBroadcast or != 1 for any other family, a timing outside
  /// [0, 2^63) ns, a hierarchical winner without clusters in [2, P] and a
  /// valid cross-cluster machine, or topology fields on a non-hierarchical
  /// winner.  So every decision in a table is one the tuned path can serve.
  void set(const DecisionKey& key, const Decision& decision);

  /// The decision governing a `bytes`-sized payload, or nullptr when no
  /// class of this (collective, P) was ever tuned.  Snaps to the nearest
  /// tuned size class (see file comment).  Pointer stays valid while the
  /// table lives — the planner's warm fast path is this one map probe.
  [[nodiscard]] const Decision* find(Collective collective, int P,
                                     std::size_t bytes) const;

  /// Exact-class probe (no snapping); nullptr when untuned.
  [[nodiscard]] const Decision* find_class(const DecisionKey& key) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const std::map<DecisionKey, Decision>& entries() const {
    return entries_;
  }

  /// Binary snapshot (format notes in the file comment).  save() throws
  /// std::runtime_error on I/O failure; load() std::invalid_argument on a
  /// malformed snapshot.
  void save(std::ostream& os) const;
  void save(const std::string& path) const;
  [[nodiscard]] static DecisionTable load(std::istream& is);
  [[nodiscard]] static DecisionTable load(const std::string& path);

  friend bool operator==(const DecisionTable&, const DecisionTable&) =
      default;

 private:
  std::map<DecisionKey, Decision> entries_;
};

}  // namespace logpc::tune
