#include "exec/program.hpp"

#include <algorithm>
#include <iterator>
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

/// The one lowering.  On entry `prog.procs[p].instrs` holds rank p's
/// events in plan-time order, each kSend/kRecv carrying in `link` its
/// message id in [0, num_ids).  Walking the ranks in order, each id becomes
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
    for (Instr& ins : prog.procs[p].instrs) {
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
/// Each rank's stream is filled with its receives, then its sends, both in
/// `sends` order; for a time-sorted list each run is already in stream
/// order, so one merge orders the rank, and any other input is sorted.
Program from_sends(Program prog, const std::vector<SendOp>& sends) {
  const Schedule timing(prog.params, 1);  // for Schedule::available_at
  prog.num_messages = sends.size();
  // Cursors into each sized stream: receives fill [0, r), sends [r, end).
  std::vector<std::size_t> recv_at(prog.procs.size(), 0);
  std::vector<std::size_t> send_at(prog.procs.size(), 0);
  for (const SendOp& op : sends) {
    ++recv_at[static_cast<std::size_t>(op.to)];
    ++send_at[static_cast<std::size_t>(op.from)];
  }
  for (std::size_t p = 0; p < prog.procs.size(); ++p) {
    prog.procs[p].instrs.resize(recv_at[p] + send_at[p]);
    send_at[p] = std::exchange(recv_at[p], 0);
  }
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const SendOp& op = sends[i];
    const auto id = static_cast<std::int32_t>(i);
    const auto to = static_cast<std::size_t>(op.to);
    const auto from = static_cast<std::size_t>(op.from);
    prog.procs[to].instrs[recv_at[to]++] =
        Instr{OpCode::kRecv, op.from, op.item, 0, id, timing.available_at(op)};
    prog.procs[from].instrs[send_at[from]++] =
        Instr{OpCode::kSend, op.to, op.item, 0, id, op.start};
  }
  std::vector<Instr> merged;
  for (std::size_t p = 0; p < prog.procs.size(); ++p) {
    std::vector<Instr>& instrs = prog.procs[p].instrs;
    const auto mid = instrs.begin() + static_cast<std::ptrdiff_t>(recv_at[p]);
    if (!std::is_sorted(instrs.begin(), mid, before) ||
        !std::is_sorted(mid, instrs.end(), before)) {
      std::sort(instrs.begin(), instrs.end(), before);
    } else if (mid != instrs.begin() && mid != instrs.end()) {
      merged.clear();
      std::merge(instrs.begin(), mid, mid, instrs.end(),
                 std::back_inserter(merged), before);
      std::copy(merged.begin(), merged.end(), instrs.begin());
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
  for (ProcProgram& pp : program.procs) {
    pp.proc = map(pp.proc);
    for (Instr& ins : pp.instrs) {
      if (ins.peer != kNoProc) ins.peer = map(ins.peer);
    }
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
  const std::vector<sum::ProcLayout> layout = sum::operand_layout(plan);
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    const sum::ProcPlan& pp = plan.procs[i];
    ProcProgram& stream = prog.procs[static_cast<std::size_t>(pp.proc)];
    stream.sum_index = static_cast<std::int32_t>(i);
    stream.num_operands = layout[i].total();
    const auto& chunks = layout[i].chunk_sizes;
    stream.instrs.reserve(chunks.size() + pp.recv_from.size() + 1);
    auto add_chunk = [&stream](std::size_t count, Time when) {
      if (count == 0) return;
      stream.instrs.push_back(Instr{OpCode::kCombineLocal, kNoProc, 0,
                                    static_cast<std::int32_t>(count), -1,
                                    when});
    };
    add_chunk(chunks[0], 0);
    for (std::size_t j = 0; j < pp.recv_from.size(); ++j) {
      stream.instrs.push_back(Instr{OpCode::kRecv, pp.recv_from[j], 0, 0,
                                    pp.recv_from[j], pp.recv_times[j]});
      add_chunk(chunks[j + 1], pp.recv_times[j]);
    }
    if (pp.send_to != kNoProc) {
      stream.instrs.push_back(
          Instr{OpCode::kSend, pp.send_to, 0, 0, pp.proc, pp.send_time});
      ++prog.num_messages;
    }
  }
  lower(prog, prog.procs.size());
  return prog;
}

}  // namespace logpc::exec
