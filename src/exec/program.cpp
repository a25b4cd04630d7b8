#include "exec/program.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "runtime/implicit_plan.hpp"
#include "runtime/plan_cache.hpp"
#include "sum/executor.hpp"

namespace logpc::exec {

namespace {

/// A program with its machine, mode, label and prediction set and one
/// empty stream per processor, ready for a source to fill.
Program skeleton(const Params& params, Mode mode, std::string label,
                 Time predicted_makespan) {
  params.require_valid();
  Program prog;
  prog.params = params;
  prog.mode = mode;
  prog.label = std::move(label);
  prog.predicted_makespan = predicted_makespan;
  prog.procs.resize(static_cast<std::size_t>(params.P));
  for (std::size_t p = 0; p < prog.procs.size(); ++p) {
    prog.procs[p].proc = static_cast<ProcId>(p);
  }
  return prog;
}

/// The one lowering.  On entry `prog.stream(p)` holds rank p's events in
/// plan-time order, each kSend/kRecv carrying in `link` its message id in
/// [0, num_ids).  Walking the ranks in order, each id becomes
/// the mailbox index of its (from, to) link, numbered by first appearance.
/// A link between ranks a and b is first met on rank min(a, b)'s walk, so
/// an unseen id names a link created on this walk, found through two
/// peer-indexed arrays (no hashing, nothing reset).  The walk refuses
/// streams that would misroute or hang: an id used with other endpoints
/// than its first use, or first used after its peer's walk; kMove: a send
/// of an item not yet held; kFold/kSum: a receive after the one send.
void lower(Program& prog, std::size_t num_ids) {
  const bool move = prog.mode == Mode::kMove;
  const std::size_t P = prog.procs.size();
  const auto items = static_cast<std::size_t>(prog.num_items);
  std::vector<char> have(move ? P * items : 0, 0);
  for (const InitialPlacement& init : prog.initials) {
    have[static_cast<std::size_t>(init.proc) * items +
         static_cast<std::size_t>(init.item)] = 1;
  }
  std::vector<std::int32_t> link_of(num_ids, -1);
  prog.links.reserve(num_ids);  // at most one new link per message
  std::vector<std::int32_t> out_to(P, -1);
  std::vector<std::int32_t> in_from(P, -1);
  const auto fail = [](std::size_t p, const std::string& what) {
    throw std::invalid_argument("exec::compile: P" + std::to_string(p) +
                                " " + what);
  };
  for (std::size_t p = 0; p < P; ++p) {
    const auto self = static_cast<ProcId>(p);
    bool sent = false;
    for (Instr& ins : prog.stream(p)) {
      if (ins.op == OpCode::kCombineLocal) continue;
      const bool send = ins.op == OpCode::kSend;
      const Link want = send ? Link{self, ins.peer} : Link{ins.peer, self};
      std::int32_t& link = link_of[static_cast<std::size_t>(ins.link)];
      if (link < 0) {
        if (ins.peer < self) {
          fail(p, "uses message " + std::to_string(ins.link) +
                      " but P" + std::to_string(ins.peer) + " does not");
        }
        std::int32_t& slot = send || ins.peer == self
                                 ? out_to[static_cast<std::size_t>(ins.peer)]
                                 : in_from[static_cast<std::size_t>(ins.peer)];
        if (slot < 0 || prog.links[static_cast<std::size_t>(slot)] != want) {
          slot = static_cast<std::int32_t>(prog.links.size());
          prog.links.push_back(want);
        }
        link = slot;
      } else if (prog.links[static_cast<std::size_t>(link)] != want) {
        fail(p, "routes message " + std::to_string(ins.link) +
                    " unlike its other end");
      }
      ins.link = link;
      if (move) {
        char& held = have[p * items + static_cast<std::size_t>(ins.item)];
        if (send && held == 0) {
          fail(p, "sends item " + std::to_string(ins.item) +
                      " before holding it");
        }
        if (!send) held = 1;
      } else {
        if (!send && sent) {
          fail(p, "receives after its send — not a reduction plan");
        }
        sent = sent || send;
      }
    }
  }
}

/// Per-rank stream order: by cycle, a receive before a send on the same
/// cycle (the send may forward the item that just landed), then by
/// message id.
bool before(const Instr& a, const Instr& b) {
  return std::tuple(a.when, a.op == OpCode::kSend, a.link) <
         std::tuple(b.when, b.op == OpCode::kSend, b.link);
}

/// The source for schedules and implicit trees alike: each SendOp is a
/// kSend on its sender at its start cycle and a kRecv on its receiver at
/// its payload-available cycle, its position in `sends` the message id.
/// One count pass sizes the instruction array and each rank's range.  A
/// list whose starts and available cycles both rise (every time-sorted
/// list without explicit receive starts) is then walked once as two
/// streams — its receives by available cycle, its sends by start — merged
/// in `before` order, so appending each event to its rank's range writes
/// every stream already in order.  Any other list is placed the same way
/// and each rank's range sorted.
Program from_sends(Program prog, const std::vector<SendOp>& sends) {
  const Schedule timing(prog.params, 1);  // for Schedule::available_at
  prog.num_messages = sends.size();
  const std::size_t P = prog.procs.size();
  std::vector<std::size_t> next(P, 0);  // per rank: its next slot
  for (const SendOp& op : sends) {
    ++next[static_cast<std::size_t>(op.to)];
    ++next[static_cast<std::size_t>(op.from)];
  }
  std::size_t at = 0;
  for (std::size_t p = 0; p < P; ++p) {
    prog.procs[p].begin = at;
    at += std::exchange(next[p], at);
    prog.procs[p].end = at;
  }
  prog.instrs.resize(at);
  bool in_order = true;
  Time last_recv = std::numeric_limits<Time>::min();
  Time last_send = last_recv;
  std::size_t r = 0;  // next message to receive
  std::size_t s = 0;  // next message to send
  while (r < sends.size() || s < sends.size()) {
    const bool recv = r < sends.size() &&
                      (s == sends.size() ||
                       timing.available_at(sends[r]) <= sends[s].start);
    const auto id = recv ? r++ : s++;
    const SendOp& op = sends[id];
    const Time when = recv ? timing.available_at(op) : op.start;
    Time& last = recv ? last_recv : last_send;
    in_order = in_order && when >= last;
    last = when;
    prog.instrs[next[static_cast<std::size_t>(recv ? op.to : op.from)]++] =
        Instr{recv ? OpCode::kRecv : OpCode::kSend, recv ? op.from : op.to,
              op.item, 0, static_cast<std::int32_t>(id), when};
  }
  if (!in_order) {
    for (std::size_t p = 0; p < P; ++p) {
      const std::span<Instr> stream = prog.stream(p);
      std::sort(stream.begin(), stream.end(), before);
    }
  }
  lower(prog, sends.size());
  return prog;
}

}  // namespace

Program compile_broadcast(const Schedule& s, std::string label) {
  Program prog =
      skeleton(s.params(), Mode::kMove, std::move(label), s.makespan());
  prog.num_items = s.num_items();
  prog.initials = s.initials();
  return from_sends(std::move(prog), s.sends());
}

Program compile_reduction(const bcast::ReductionPlan& plan) {
  return from_sends(skeleton(plan.schedule.params(), Mode::kFold, "reduce",
                             plan.completion),
                    plan.schedule.sends());
}

Program relabel_swapped(Program program, ProcId a, ProcId b) {
  const auto P = static_cast<ProcId>(program.procs.size());
  if (a < 0 || a >= P || b < 0 || b >= P) {
    throw std::invalid_argument("exec::relabel_swapped: rank out of range");
  }
  if (a == b) return program;
  const auto map = [a, b](ProcId p) { return p == a ? b : (p == b ? a : p); };
  std::swap(program.procs[static_cast<std::size_t>(a)],
            program.procs[static_cast<std::size_t>(b)]);
  for (ProcProgram& pp : program.procs) pp.proc = map(pp.proc);
  for (Instr& ins : program.instrs) {
    if (ins.peer != kNoProc) ins.peer = map(ins.peer);
  }
  for (Link& link : program.links) {
    link.from = map(link.from);
    link.to = map(link.to);
  }
  for (InitialPlacement& init : program.initials) {
    init.proc = map(init.proc);
  }
  return program;
}

Program compile_implicit(const runtime::ImplicitPlan& plan,
                         std::string label) {
  const bool reduce = plan.is_reduction();
  if (label.empty()) label = reduce ? "reduce" : "bcast";
  Program prog = skeleton(plan.params(), reduce ? Mode::kFold : Mode::kMove,
                          std::move(label), plan.completion());
  if (!reduce) {
    prog.initials.push_back(InitialPlacement{0, plan.plan_key().root, 0});
  }
  return from_sends(std::move(prog), plan.sends());
}

Program compile_plan(const runtime::Plan& plan, std::string label) {
  if (plan.implicit) return compile_implicit(*plan.implicit, std::move(label));
  if (plan.summation) {
    return compile_summation(*plan.summation, std::move(label));
  }
  return compile_broadcast(plan.schedule, std::move(label));
}

Program compile_summation(const sum::SummationPlan& plan, std::string label) {
  Program prog = skeleton(plan.params, Mode::kSum, std::move(label), plan.t);
  // Each participant sends at most once, so its sender names a message.
  // Participants' streams sit in the array in plan.procs order.
  const std::vector<sum::ProcLayout> layout = sum::operand_layout(plan);
  std::size_t total = 0;
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    total += layout[i].chunk_sizes.size() + plan.procs[i].recv_from.size() + 1;
  }
  prog.instrs.reserve(total);
  auto add_chunk = [&prog](std::size_t count, Time when) {
    if (count == 0) return;
    prog.instrs.push_back(Instr{OpCode::kCombineLocal, kNoProc, 0,
                                static_cast<std::int32_t>(count), -1, when});
  };
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    const sum::ProcPlan& pp = plan.procs[i];
    ProcProgram& stream = prog.procs[static_cast<std::size_t>(pp.proc)];
    stream.sum_index = static_cast<std::int32_t>(i);
    stream.num_operands = layout[i].total();
    stream.begin = prog.instrs.size();
    const auto& chunks = layout[i].chunk_sizes;
    add_chunk(chunks[0], 0);
    for (std::size_t j = 0; j < pp.recv_from.size(); ++j) {
      prog.instrs.push_back(Instr{OpCode::kRecv, pp.recv_from[j], 0, 0,
                                  pp.recv_from[j], pp.recv_times[j]});
      add_chunk(chunks[j + 1], pp.recv_times[j]);
    }
    if (pp.send_to != kNoProc) {
      prog.instrs.push_back(
          Instr{OpCode::kSend, pp.send_to, 0, 0, pp.proc, pp.send_time});
      ++prog.num_messages;
    }
    stream.end = prog.instrs.size();
  }
  lower(prog, prog.procs.size());
  return prog;
}

bool operator==(const Program& a, const Program& b) {
  if (a.params != b.params || a.mode != b.mode || a.label != b.label ||
      a.num_items != b.num_items ||
      a.predicted_makespan != b.predicted_makespan ||
      a.num_messages != b.num_messages || a.procs.size() != b.procs.size() ||
      a.links != b.links || a.initials != b.initials) {
    return false;
  }
  for (std::size_t p = 0; p < a.procs.size(); ++p) {
    const ProcProgram& x = a.procs[p];
    const ProcProgram& y = b.procs[p];
    const std::span<const Instr> xs = a.stream(p);
    const std::span<const Instr> ys = b.stream(p);
    if (x.proc != y.proc || x.sum_index != y.sum_index ||
        x.num_operands != y.num_operands ||
        !std::equal(xs.begin(), xs.end(), ys.begin(), ys.end())) {
      return false;
    }
  }
  return true;
}

}  // namespace logpc::exec
