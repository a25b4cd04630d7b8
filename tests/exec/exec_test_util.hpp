#pragma once

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/engine.hpp"
#include "exec/program.hpp"
#include "runtime/implicit_plan.hpp"
#include "runtime/plan_cache.hpp"
#include "sum/executor.hpp"

/// Shared payload helpers for the exec test suites: fixed-width integers
/// and variable-length strings in and out of exec::Bytes, plus the two
/// combine operators the paper's summation footnote distinguishes (a
/// commutative one and a non-commutative one), an independent oracle for
/// the causality the engine records on each receive, and a reference
/// lowering that the compiler's Programs must equal.

namespace logpc::exec::testutil {

inline Bytes of_u64(std::uint64_t v) {
  Bytes b(sizeof v);
  std::memcpy(b.data(), &v, sizeof v);
  return b;
}

inline std::uint64_t to_u64(const Bytes& b) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data(), std::min(b.size(), sizeof v));
  return v;
}

inline Bytes of_str(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return Bytes(p, p + s.size());
}

inline std::string to_str(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

/// Commutative: 64-bit addition.
inline CombineFn add_u64() {
  return [](Bytes& acc, std::span<const std::byte> rhs) {
    std::uint64_t a = 0, r = 0;
    std::memcpy(&a, acc.data(), std::min(acc.size(), sizeof a));
    std::memcpy(&r, rhs.data(), std::min(rhs.size(), sizeof r));
    a += r;
    acc.resize(sizeof a);
    std::memcpy(acc.data(), &a, sizeof a);
  };
}

/// Associative but NOT commutative: byte concatenation.  Any reordering of
/// the fold shows up as a different string.
inline CombineFn concat() {
  return [](Bytes& acc, std::span<const std::byte> rhs) {
    acc.insert(acc.end(), rhs.begin(), rhs.end());
  };
}

/// Checks every receive's recorded ExecEvent::match against the per-link
/// FIFO pairing rebuilt from the logs alone — the i-th receive on a
/// directed link pairs with the i-th send on it, which holds under
/// injected drops too, since a dropped delivery is resent at the pop.  A send must carry ExecEvent::kNoMatch.  Returns ""
/// when every event agrees, else a description of the first mismatch.
inline std::string match_errors(const ExecReport& report) {
  std::map<std::pair<ProcId, ProcId>, std::vector<std::uint32_t>> sends;
  for (std::size_t p = 0; p < report.events.size(); ++p) {
    for (std::size_t i = 0; i < report.events[p].size(); ++i) {
      const ExecEvent& ev = report.events[p][i];
      if (ev.kind == ExecEvent::Kind::kSend) {
        sends[{static_cast<ProcId>(p), ev.peer}].push_back(
            static_cast<std::uint32_t>(i));
      }
    }
  }
  std::map<std::pair<ProcId, ProcId>, std::size_t> popped;
  for (std::size_t p = 0; p < report.events.size(); ++p) {
    for (std::size_t i = 0; i < report.events[p].size(); ++i) {
      const ExecEvent& ev = report.events[p][i];
      std::uint32_t want = ExecEvent::kNoMatch;
      if (ev.kind == ExecEvent::Kind::kRecv) {
        const std::pair<ProcId, ProcId> link{ev.peer, static_cast<ProcId>(p)};
        const std::vector<std::uint32_t>& fifo = sends[link];
        const std::size_t k = popped[link]++;
        if (k < fifo.size()) want = fifo[k];
      }
      if (ev.match != want) {
        return "P" + std::to_string(p) + " event " + std::to_string(i) +
               ": match " + std::to_string(ev.match) + ", FIFO pairing " +
               std::to_string(want);
      }
    }
  }
  return "";
}

/// Lays `streams` (one per rank) into `prog` as its one instruction array,
/// rank 0's stream first, and sets each rank's id and range; a rank's other
/// fields are kept.  Every hand-built test Program goes through here.
inline void set_streams(Program& prog,
                        std::vector<std::vector<Instr>> streams) {
  prog.procs.resize(streams.size());
  prog.instrs.clear();
  for (std::size_t p = 0; p < streams.size(); ++p) {
    ProcProgram& pp = prog.procs[p];
    pp.proc = static_cast<ProcId>(p);
    pp.begin = prog.instrs.size();
    prog.instrs.insert(prog.instrs.end(), streams[p].begin(),
                       streams[p].end());
    pp.end = prog.instrs.size();
  }
}

/// A reference lowering, written for clarity rather than speed: links
/// interned through a hash map, every rank's stream built in its own vector
/// and fully sorted, the implicit source built from
/// ImplicitPlan::rank_schedule, and the streams laid into one array only at
/// the end.  exec::compile_* must produce Programs equal to these
/// (Program::operator==, links included) on every valid plan.
namespace reference {

/// One vector per rank until finish() flattens them.
using Streams = std::vector<std::vector<Instr>>;

inline Program skeleton(const Params& params, Mode mode, std::string label,
                        Time predicted_makespan) {
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

/// Each instruction's `link` holds its message id on entry; links are
/// numbered by first appearance walking rank 0's stream, then rank 1's ...
/// Then the streams become `prog`'s array.
inline Program finish(Program prog, Streams streams, std::size_t num_ids) {
  std::unordered_map<std::uint64_t, std::int32_t> index;
  std::vector<std::int32_t> link_of(num_ids, -1);
  const auto intern = [&](ProcId from, ProcId to) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
        static_cast<std::uint32_t>(to);
    const auto [it, inserted] = index.try_emplace(
        key, static_cast<std::int32_t>(prog.links.size()));
    if (inserted) prog.links.push_back(Link{from, to});
    return it->second;
  };
  for (std::size_t p = 0; p < streams.size(); ++p) {
    const auto self = static_cast<ProcId>(p);
    for (Instr& ins : streams[p]) {
      if (ins.op == OpCode::kCombineLocal) continue;
      std::int32_t& link = link_of[static_cast<std::size_t>(ins.link)];
      if (link < 0) {
        link = ins.op == OpCode::kSend ? intern(self, ins.peer)
                                       : intern(ins.peer, self);
      }
      ins.link = link;
    }
  }
  set_streams(prog, std::move(streams));
  return prog;
}

inline Program from_schedule(Program prog, const Schedule& s) {
  const auto& sends = s.sends();
  prog.num_messages = sends.size();
  Streams streams(prog.procs.size());
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const SendOp& op = sends[i];
    const auto id = static_cast<std::int32_t>(i);
    streams[static_cast<std::size_t>(op.from)].push_back(
        Instr{OpCode::kSend, op.to, op.item, 0, id, op.start});
    streams[static_cast<std::size_t>(op.to)].push_back(
        Instr{OpCode::kRecv, op.from, op.item, 0, id, s.available_at(op)});
  }
  for (std::vector<Instr>& stream : streams) {
    std::sort(stream.begin(), stream.end(),
              [](const Instr& a, const Instr& b) {
                return std::tuple(a.when, a.op == OpCode::kSend, a.link) <
                       std::tuple(b.when, b.op == OpCode::kSend, b.link);
              });
  }
  return finish(std::move(prog), std::move(streams), sends.size());
}

inline Program compile_broadcast(const Schedule& s,
                                 std::string label = "bcast") {
  Program prog =
      skeleton(s.params(), Mode::kMove, std::move(label), s.makespan());
  prog.num_items = s.num_items();
  prog.initials = s.initials();
  return from_schedule(std::move(prog), s);
}

inline Program compile_reduction(const bcast::ReductionPlan& plan) {
  return from_schedule(skeleton(plan.schedule.params(), Mode::kFold,
                                "reduce", plan.completion),
                       plan.schedule);
}

inline Program compile_implicit(const runtime::ImplicitPlan& plan,
                                std::string label) {
  const bool reduce = plan.is_reduction();
  Program prog = skeleton(plan.params(), reduce ? Mode::kFold : Mode::kMove,
                          std::move(label), plan.completion());
  const auto P = static_cast<std::size_t>(plan.params().P);
  const Time T = plan.params().transfer_time();
  prog.num_messages = P - 1;
  if (!reduce) {
    prog.initials.push_back(InitialPlacement{0, plan.plan_key().root, 0});
  }
  const auto id = [reduce](const SendOp& op) {
    return static_cast<std::int32_t>(reduce ? op.from : op.to);
  };
  Streams streams(P);
  for (std::size_t p = 0; p < P; ++p) {
    const runtime::RankSchedule rs =
        plan.rank_schedule(static_cast<ProcId>(p));
    std::vector<Instr>& instrs = streams[p];
    for (const SendOp& op : rs.recvs) {
      instrs.push_back(
          Instr{OpCode::kRecv, op.from, op.item, 0, id(op), op.start + T});
    }
    for (const SendOp& op : rs.sends) {
      instrs.push_back(
          Instr{OpCode::kSend, op.to, op.item, 0, id(op), op.start});
    }
  }
  return finish(std::move(prog), std::move(streams), P);
}

inline Program compile_summation(const sum::SummationPlan& plan,
                                 std::string label = "summation") {
  Program prog = skeleton(plan.params, Mode::kSum, std::move(label), plan.t);
  const std::vector<sum::ProcLayout> layout = sum::operand_layout(plan);
  Streams streams(prog.procs.size());
  for (std::size_t i = 0; i < plan.procs.size(); ++i) {
    const sum::ProcPlan& pp = plan.procs[i];
    ProcProgram& meta = prog.procs[static_cast<std::size_t>(pp.proc)];
    meta.sum_index = static_cast<std::int32_t>(i);
    meta.num_operands = layout[i].total();
    std::vector<Instr>& stream = streams[static_cast<std::size_t>(pp.proc)];
    const auto& chunks = layout[i].chunk_sizes;
    const auto add_chunk = [&stream](std::size_t count, Time when) {
      if (count == 0) return;
      stream.push_back(Instr{OpCode::kCombineLocal, kNoProc, 0,
                             static_cast<std::int32_t>(count), -1, when});
    };
    add_chunk(chunks[0], 0);
    for (std::size_t j = 0; j < pp.recv_from.size(); ++j) {
      stream.push_back(Instr{OpCode::kRecv, pp.recv_from[j], 0, 0,
                             pp.recv_from[j], pp.recv_times[j]});
      add_chunk(chunks[j + 1], pp.recv_times[j]);
    }
    if (pp.send_to != kNoProc) {
      stream.push_back(
          Instr{OpCode::kSend, pp.send_to, 0, 0, pp.proc, pp.send_time});
      ++prog.num_messages;
    }
  }
  const std::size_t num_ids = prog.procs.size();
  return finish(std::move(prog), std::move(streams), num_ids);
}

/// The reference for exec::compile_plan: the cached plan's implicit form,
/// summation plan or schedule, whichever it carries.
inline Program compile_plan(const runtime::Plan& plan, std::string label) {
  if (plan.implicit) return compile_implicit(*plan.implicit, std::move(label));
  if (plan.summation) {
    return compile_summation(*plan.summation, std::move(label));
  }
  return compile_broadcast(plan.schedule, std::move(label));
}

}  // namespace reference

}  // namespace logpc::exec::testutil
