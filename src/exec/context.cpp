#include "exec/context.hpp"

namespace logpc::exec {

bool RunContext::prepare(const RunShape& shape) {
  const bool warm = prepared_ && shape == shape_;
  if (warm) {
    // Same shape as the previous run: every resource is structurally
    // reusable.  Clear the *contents* only — a run that threw (a deadlock,
    // a crashed rank) can leave messages in its rings.
    for (Mailbox& mb : mailboxes) {
      mb.clear();
      mb.reset_stats();
    }
  } else {
    mailboxes.assign(shape.links, Mailbox(shape.capacity));
    ready.reserve(shape.procs);
    next.reserve(shape.procs);
    shape_ = shape;
    prepared_ = true;
  }

  // Cursors always start from zero; the vectors keep their heap blocks
  // across same-shape runs (assign never shrinks capacity).
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
