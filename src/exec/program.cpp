#include "exec/program.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "runtime/implicit_plan.hpp"
#include "runtime/plan_cache.hpp"
#include "sum/executor.hpp"

namespace logpc::exec {

namespace {

/// Interns directed links: one mailbox index per (from, to) pair.
class LinkTable {
 public:
  std::int32_t intern(ProcId from, ProcId to) {
    const std::uint64_t key = (static_cast<std::uint64_t>(
                                   static_cast<std::uint32_t>(from))
                               << 32) |
                              static_cast<std::uint32_t>(to);
    auto [it, inserted] = index_.try_emplace(key, links_.size());
    if (inserted) links_.push_back(Link{from, to});
    return static_cast<std::int32_t>(it->second);
  }

  std::vector<Link> take() { return std::move(links_); }

 private:
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<Link> links_;
};

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
/// events in plan-time order, and every kSend/kRecv carries in `link` the
/// id of its message, in [0, num_ids) and shared by the send and its
/// receive.  Walking the ranks in order, each id becomes the mailbox index
/// of its (from, to) link, links numbered by first appearance; memoizing
/// per id keeps it to one table probe per message.  The same walk refuses
/// a stream that would block forever — kMove: a send of an item the rank
/// has neither received nor been placed; kFold/kSum: a receive after the
/// rank's one send.
void lower(Program& prog, std::size_t num_ids) {
  const bool move = prog.mode == Mode::kMove;
  const auto items = static_cast<std::size_t>(prog.num_items);
  std::vector<char> have(move ? prog.procs.size() * items : 0, 0);
  for (const InitialPlacement& init : prog.initials) {
    have[static_cast<std::size_t>(init.proc) * items +
         static_cast<std::size_t>(init.item)] = 1;
  }
  std::vector<std::int32_t> link_of(num_ids, -1);
  LinkTable links;
  for (std::size_t p = 0; p < prog.procs.size(); ++p) {
    const auto self = static_cast<ProcId>(p);
    bool sent = false;
    for (Instr& ins : prog.procs[p].instrs) {
      if (ins.op == OpCode::kCombineLocal) continue;
      const bool send = ins.op == OpCode::kSend;
      std::int32_t& link = link_of[static_cast<std::size_t>(ins.link)];
      if (link < 0) {
        link = send ? links.intern(self, ins.peer)
                    : links.intern(ins.peer, self);
      }
      ins.link = link;
      if (move) {
        char& held = have[p * items + static_cast<std::size_t>(ins.item)];
        if (send && held == 0) {
          throw std::invalid_argument(
              "exec::compile: P" + std::to_string(p) + " sends item " +
              std::to_string(ins.item) + " before holding it");
        }
        if (!send) held = 1;
      } else {
        if (!send && sent) {
          throw std::invalid_argument(
              "exec::compile: P" + std::to_string(p) +
              " receives after its send — not a reduction plan");
        }
        sent = sent || send;
      }
    }
  }
  prog.links = links.take();
}

/// Source for a materialized schedule: each SendOp is a kSend on its
/// sender at its start cycle and a kRecv on its receiver at its
/// payload-available cycle, its schedule position the message id.  Per
/// rank, events sort by cycle, a receive before a send on the same cycle
/// (the send may forward the item that just landed), then by position.
Program from_schedule(Program prog, const Schedule& s) {
  const auto& sends = s.sends();
  prog.num_messages = sends.size();
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const SendOp& op = sends[i];
    const auto id = static_cast<std::int32_t>(i);
    prog.procs[static_cast<std::size_t>(op.from)].instrs.push_back(
        Instr{OpCode::kSend, op.to, op.item, 0, id, op.start});
    prog.procs[static_cast<std::size_t>(op.to)].instrs.push_back(
        Instr{OpCode::kRecv, op.from, op.item, 0, id, s.available_at(op)});
  }
  for (ProcProgram& pp : prog.procs) {
    std::sort(pp.instrs.begin(), pp.instrs.end(),
              [](const Instr& a, const Instr& b) {
                return std::tuple(a.when, a.op == OpCode::kSend, a.link) <
                       std::tuple(b.when, b.op == OpCode::kSend, b.link);
              });
  }
  lower(prog, sends.size());
  return prog;
}

}  // namespace

std::vector<std::vector<validate::DeliveryRecord>>
Program::expected_deliveries() const {
  std::vector<std::vector<validate::DeliveryRecord>> out(procs.size());
  for (std::size_t p = 0; p < procs.size(); ++p) {
    for (const Instr& ins : procs[p].instrs) {
      if (ins.op == OpCode::kRecv) {
        out[p].push_back(validate::DeliveryRecord{ins.peer, ins.item});
      }
    }
  }
  return out;
}

Program compile_broadcast(const Schedule& s, std::string label) {
  Program prog =
      skeleton(s.params(), Mode::kMove, std::move(label), s.makespan());
  prog.num_items = s.num_items();
  prog.initials = s.initials();
  return from_schedule(std::move(prog), s);
}

Program compile_reduction(const bcast::ReductionPlan& plan) {
  return from_schedule(skeleton(plan.schedule.params(), Mode::kFold,
                                "reduce", plan.completion),
                       plan.schedule);
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
  const auto P = static_cast<std::size_t>(plan.params().P);
  const Time T = plan.params().transfer_time();
  prog.num_messages = P - 1;
  if (!reduce) {
    prog.initials.push_back(InitialPlacement{0, plan.plan_key().root, 0});
  }
  // Per-rank streams straight from the generators.  A RankSchedule's recvs
  // and sends are each in time order, and every receive's payload is
  // available no later than the first send's start (equality only on the
  // parent link), so recvs-then-sends is plan-time order.  Every tree edge
  // carries one message, named by its child end: the receiver of a
  // broadcast edge, the sender of a reduction edge.
  const auto id = [reduce](const SendOp& op) {
    return static_cast<std::int32_t>(reduce ? op.from : op.to);
  };
  for (std::size_t p = 0; p < P; ++p) {
    const runtime::RankSchedule rs =
        plan.rank_schedule(static_cast<ProcId>(p));
    std::vector<Instr>& instrs = prog.procs[p].instrs;
    instrs.reserve(rs.recvs.size() + rs.sends.size());
    for (const SendOp& op : rs.recvs) {
      instrs.push_back(
          Instr{OpCode::kRecv, op.from, op.item, 0, id(op), op.start + T});
    }
    for (const SendOp& op : rs.sends) {
      instrs.push_back(
          Instr{OpCode::kSend, op.to, op.item, 0, id(op), op.start});
    }
  }
  lower(prog, P);
  return prog;
}

Program compile_plan(const runtime::Plan& plan, std::string label) {
  if (plan.implicit) return compile_implicit(*plan.implicit, std::move(label));
  return compile_broadcast(plan.schedule, std::move(label));
}

Program compile_summation(const sum::SummationPlan& plan) {
  Program prog = skeleton(plan.params, Mode::kSum, "summation", plan.t);
  // Each participant sends at most once, so a message is named by its
  // sender.
  const std::vector<sum::ProcLayout> layout = sum::operand_layout(plan);
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    const sum::ProcPlan& pp = plan.procs[i];
    ProcProgram& stream = prog.procs[static_cast<std::size_t>(pp.proc)];
    stream.sum_index = static_cast<std::int32_t>(i);
    stream.num_operands = layout[i].total();
    const auto& chunks = layout[i].chunk_sizes;
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
