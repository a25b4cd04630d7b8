#include "exec/context.hpp"

namespace logpc::exec {

bool RunContext::prepare(const RunShape& shape) {
  const bool warm = prepared_ && shape == shape_;
  if (warm) {
    // Same shape as the previous run: every resource is structurally
    // reusable.  Clear the *contents* only — a reliable run can leave
    // retransmitted duplicates in a data ring and best-effort re-acks in
    // an ack ring even after completing cleanly, and a stale ack from a
    // previous run's sequence space would satisfy a new run's ack wait
    // spuriously.
    for (Mailbox& mb : mailboxes) {
      mb.clear();
      mb.reset_stats();
    }
    for (AckRing& ar : acks) {
      ar.clear();
      ar.reset_stats();
    }
  } else {
    mailboxes.assign(shape.links, Mailbox(shape.capacity));
    acks.clear();
    if (shape.reliable) acks.assign(shape.links, AckRing(shape.capacity));
    ready.reserve(shape.procs);
    next.reserve(shape.procs);
    shape_ = shape;
    prepared_ = true;
  }

  // Per-run sequence state and cursors always start from zero; the vectors
  // keep their heap blocks across same-shape runs (assign never shrinks
  // capacity).
  if (shape.reliable) {
    send_seq.assign(shape.links, 0);
    acked.assign(shape.links, 0);
    accepted.assign(shape.links, 0);
    attempts.assign(shape.links, 0);
  } else {
    send_seq.clear();
    acked.clear();
    accepted.clear();
    attempts.clear();
  }
  cursors.assign(shape.procs, Cursor{});
  ready.clear();
  next.clear();

  // Slot tables are sized by the caller (they depend on num_items, not the
  // shape).
  slots.clear();
  slot_used.clear();
  return warm;
}

}  // namespace logpc::exec
