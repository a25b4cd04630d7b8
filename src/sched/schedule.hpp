#pragma once

#include <iosfwd>
#include <optional>
#include <vector>

#include "logp/params.hpp"
#include "sched/ops.hpp"

/// \file schedule.hpp
/// A complete communication schedule: the machine, the items' initial
/// placements, and every transmission.  This is the lingua franca between
/// the schedule constructors (src/bcast, src/sum), the independent validator
/// (src/validate), the simulator (src/sim) and the renderers (src/viz).

namespace logpc {

/// A communication schedule on a LogP machine.
///
/// Invariants maintained by the constructors in this library (and enforced
/// by validate::check): all processor ids in [0, params.P), all item ids in
/// [0, num_items), sends sorted by construction order (call sort() for
/// time order).
class Schedule {
 public:
  Schedule() = default;
  Schedule(Params params, int num_items)
      : params_(params), num_items_(num_items) {}

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] int num_items() const { return num_items_; }

  [[nodiscard]] const std::vector<InitialPlacement>& initials() const {
    return initials_;
  }
  [[nodiscard]] const std::vector<SendOp>& sends() const { return sends_; }
  void reserve_sends(std::size_t n) { sends_.reserve(n); }

  /// Declares that `item` exists at `proc` from cycle `time` on.
  void add_initial(ItemId item, ProcId proc, Time time = 0);

  /// Appends a transmission.  Returns the time the item becomes available at
  /// the receiver (= effective recv_start + o).
  Time add_send(SendOp op) {
    sends_.push_back(op);
    return available_at(op);
  }

  /// Convenience: strict-model send of `item` from `from` starting at `t`.
  Time add_send(Time t, ProcId from, ProcId to, ItemId item);

  /// Effective receive-overhead start of `op`: op.recv_start if set,
  /// otherwise op.start + o + L.
  [[nodiscard]] Time recv_start(const SendOp& op) const {
    return op.recv_start == kNever ? op.start + params_.o + params_.L
                                   : op.recv_start;
  }

  /// Cycle at which op's item becomes available at the receiver.
  [[nodiscard]] Time available_at(const SendOp& op) const {
    return recv_start(op) + params_.o;
  }

  /// Sorts sends by (start, from, to, item) for stable output.
  void sort();

  /// First cycle at which `proc` holds `item`, or kNever.  O(sends).
  [[nodiscard]] Time first_available(ProcId proc, ItemId item) const;

  /// Last cycle at which any transmission completes (max available_at), or
  /// the max initial time when there are no sends.
  [[nodiscard]] Time makespan() const;

  friend bool operator==(const Schedule&, const Schedule&) = default;

 private:
  Params params_{};
  int num_items_ = 1;
  std::vector<InitialPlacement> initials_;
  std::vector<SendOp> sends_;
};

std::ostream& operator<<(std::ostream& os, const Schedule& s);

}  // namespace logpc
