#pragma once

#include "sched/schedule.hpp"
#include "validate/report.hpp"

/// \file checker.hpp
/// Independent verification that a schedule obeys every LogP rule and (for
/// broadcast problems) actually delivers every item everywhere.  This is
/// deliberately a second implementation of the model's semantics, separate
/// from both the builders and the simulator, so the three can cross-check
/// one another in tests and benches.

namespace logpc::validate {

struct CheckOptions {
  /// Modified model of Section 3.5: receivers may hold arrivals in a buffer
  /// and receive them later (recv_start >= arrival instead of ==).
  bool buffered = false;

  /// With `buffered`, the maximum number of items allowed to sit in any
  /// processor's buffer at once (-1 = unlimited).  The paper notes a scheme
  /// achieving the k-item lower bound with buffer size 2.
  int buffer_limit = -1;

  /// Fail on any processor receiving the same item twice.  Optimal schedules
  /// never do this; baselines may legitimately want it off.
  bool forbid_duplicate_receive = true;

  /// Require every item to reach every processor (the broadcast goal).
  /// Disable for partial schedules (e.g. a reduction, where values converge
  /// to one processor) and check the goal separately.
  bool require_complete = true;

  /// Enforce the network capacity constraint (at most ceil(L/g) messages in
  /// transit from, or to, any processor).
  bool check_capacity = true;

  /// Allow a processor's send overhead to overlap a receive overhead
  /// (full-duplex overheads).  Section 4.1's optimal all-to-all schedule
  /// requires this whenever L < (P-2)g: every processor is mid-send when
  /// arrivals land, yet the paper presents the schedule as meeting the
  /// L + 2o + (P-2)g bound - so its accounting implicitly charges send and
  /// receive engagement concurrently.  Everything else in the paper works
  /// single-ported; the default stays strict.
  bool allow_duplex_overhead = false;

  /// Stop after this many violations (0 = collect all).
  std::size_t max_violations = 64;
};

/// Validates `s` against the LogP rules; returns every violation found (up
/// to options.max_violations).
[[nodiscard]] CheckResult check(const Schedule& s, CheckOptions options = {});

/// Convenience used pervasively in tests: check(s, options).ok().
[[nodiscard]] bool is_valid(const Schedule& s, CheckOptions options = {});

/// One observed reception during real execution (src/exec): who the payload
/// came from and which item it carried, in the order the processor accepted
/// it.  Kept here (not in exec) so the checker stays an independent
/// implementation of the model's semantics.
struct DeliveryRecord {
  ProcId from = kNoProc;
  ItemId item = 0;

  friend bool operator==(const DeliveryRecord&, const DeliveryRecord&) =
      default;
};

/// The reception sequence `plan` prescribes for each processor: its
/// receives ordered by payload-available cycle (ties by schedule order).
[[nodiscard]] std::vector<std::vector<DeliveryRecord>> planned_deliveries(
    const Schedule& plan);

/// Cross-checks an execution against its plan: processor by processor, the
/// observed reception sequence must equal planned_deliveries(plan).  Every
/// divergence (missing, extra, or reordered reception) is reported as a
/// kDeliveryOrder violation.
[[nodiscard]] CheckResult check_delivery_order(
    const Schedule& plan,
    const std::vector<std::vector<DeliveryRecord>>& observed);

/// Exactly-once audit for executions under fault injection: the engine
/// resends a dropped delivery, but the message must be accepted once —
/// so no processor's observed reception sequence may contain the same
/// (from, item) pair twice.  Each
/// repeat is reported as a kDuplicateReceive violation.  (This is the
/// per-pair complement of check_delivery_order, which would also flag a
/// duplicate but as an order divergence; running both pins the failure to
/// its rule.)
[[nodiscard]] CheckResult check_exactly_once(
    const std::vector<std::vector<DeliveryRecord>>& observed);

}  // namespace logpc::validate
