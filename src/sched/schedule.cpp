#include "sched/schedule.hpp"

#include <algorithm>
#include <ostream>
#include <tuple>

namespace logpc {

void Schedule::add_initial(ItemId item, ProcId proc, Time time) {
  initials_.push_back(InitialPlacement{item, proc, time});
}

Time Schedule::add_send(Time t, ProcId from, ProcId to, ItemId item) {
  return add_send(SendOp{t, from, to, item, kNever});
}

void Schedule::sort() {
  std::stable_sort(sends_.begin(), sends_.end(),
                   [](const SendOp& a, const SendOp& b) {
                     return std::tie(a.start, a.from, a.to, a.item) <
                            std::tie(b.start, b.from, b.to, b.item);
                   });
}

Time Schedule::first_available(ProcId proc, ItemId item) const {
  Time best = kNever;
  for (const auto& init : initials_) {
    if (init.proc == proc && init.item == item) best = std::min(best, init.time);
  }
  for (const auto& op : sends_) {
    if (op.to == proc && op.item == item) {
      best = std::min(best, available_at(op));
    }
  }
  return best;
}

Time Schedule::makespan() const {
  Time m = 0;
  for (const auto& init : initials_) m = std::max(m, init.time);
  for (const auto& op : sends_) m = std::max(m, available_at(op));
  return m;
}

std::ostream& operator<<(std::ostream& os, const Schedule& s) {
  os << "Schedule{" << s.params() << ", items=" << s.num_items() << "\n";
  for (const auto& init : s.initials()) {
    os << "  init  item " << init.item << " @P" << init.proc << " t="
       << init.time << "\n";
  }
  for (const auto& op : s.sends()) {
    os << "  send  item " << op.item << "  P" << op.from << " -> P" << op.to
       << "  start=" << op.start << "  avail=" << s.available_at(op);
    if (op.recv_start != kNever) os << "  (buffered recv@" << op.recv_start << ")";
    os << "\n";
  }
  return os << "}";
}

}  // namespace logpc
