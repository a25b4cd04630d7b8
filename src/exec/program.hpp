#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bcast/reduction.hpp"
#include "sched/schedule.hpp"
#include "sum/summation_tree.hpp"

/// \file program.hpp
/// Instruction compilation: lowering a planned collective — a `Schedule`,
/// a `bcast::ReductionPlan` or a `sum::SummationPlan` — into one in-order
/// instruction stream per logical processor, ready for exec::Engine to
/// run.
///
/// Per processor, the stream is the plan's events in plan-time order:
/// receives keyed by the cycle their payload becomes available, sends by
/// their start cycle (a receive sorts first on ties, since a send at cycle
/// t may forward an item that becomes available exactly at t).  Because a
/// valid LogP schedule's dependency graph is acyclic in plan time, and the
/// mailbox bound equals the model's capacity constraint, executing these
/// streams with blocking sends/receives cannot deadlock in whatever order
/// the engine steps the ranks.
///
/// Layout: a Program owns one contiguous `instrs` array, and each rank's
/// stream is the [begin, end) range its ProcProgram names in it
/// (Program::stream).  Lowering a plan therefore allocates one array, not
/// one per rank.  The ranges carry no meaning beyond that: two Programs
/// are equal when their ranks' streams are, however the array is laid out
/// (relabel_swapped exchanges two ranges without moving an instruction).
///
/// Every compile_* function is a thin source for one lowering: it emits
/// each rank's events in that order, and the lowering numbers the links
/// rank-major (in order of first appearance walking rank 0's stream, then
/// rank 1's, ...) in time linear in the messages, and refuses streams that
/// would hang or misroute.  The same plan therefore lowers to the same
/// Program whichever form — materialized schedule or implicit generator —
/// it arrives in.
///
/// Three value semantics, one per planner output family:
///  * kMove  — broadcast-shaped plans (bcast, k-item, scatter, gather,
///             all-to-all): a receive copies the payload into the local
///             item slot, a send transmits the slot verbatim;
///  * kFold  — message reduction (Section 4.2): every receive folds the
///             incoming partial value into the local accumulator in
///             arrival order, the single send transmits the accumulator;
///  * kSum   — Section 5 summation: local operand chunks (kCombineLocal,
///             sized by sum::operand_layout) interleave with receptions
///             exactly as Lemma 5.1 times them, so any associative — even
///             non-commutative — operator folds in combination_order.

namespace logpc::runtime {
class ImplicitPlan;
struct Plan;
}  // namespace logpc::runtime

namespace logpc::exec {

enum class Mode : std::uint8_t { kMove, kFold, kSum };

enum class OpCode : std::uint8_t {
  kSend,          ///< push the item slot (kMove) or accumulator to `peer`
  kRecv,          ///< blocking pop from `peer`; store or fold per Mode
  kCombineLocal,  ///< kSum only: fold the next `count` local operands
};

/// One step of a processor's stream.  `when` is the planned cycle (send
/// start / payload-available time) — carried for reporting and the
/// predicted-vs-measured comparison, never for pacing.
struct Instr {
  OpCode op = OpCode::kSend;
  ProcId peer = kNoProc;   ///< send: destination; recv: source
  ItemId item = 0;         ///< slot to send / item expected on arrival
  std::int32_t count = 0;  ///< kCombineLocal: operands to fold
  std::int32_t link = -1;  ///< mailbox index (kSend/kRecv)
  Time when = 0;           ///< planned cycle of the event

  friend bool operator==(const Instr&, const Instr&) = default;
};

/// One directed processor pair with traffic, i.e. one mailbox.
struct Link {
  ProcId from = kNoProc;
  ProcId to = kNoProc;

  friend bool operator==(const Link&, const Link&) = default;
};

/// One rank's slice of a Program: its stream is
/// Program::instrs[begin, end).
struct ProcProgram {
  ProcId proc = kNoProc;
  std::int32_t sum_index = -1;    ///< kSum: index into SummationPlan::procs
  std::size_t num_operands = 0;   ///< kSum: local operands this proc folds
  std::size_t begin = 0;          ///< first instruction in Program::instrs
  std::size_t end = 0;            ///< one past the last

  [[nodiscard]] std::size_t size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin == end; }
};

/// A compiled collective: everything Engine::run needs, decoupled from the
/// planner types it was lowered from.
struct Program {
  Params params;                  ///< machine the plan was stated on
  Mode mode = Mode::kMove;
  std::string label;              ///< "bcast", "alltoall", ... (telemetry)
  int num_items = 1;              ///< item-id space (kMove slot count)
  Time predicted_makespan = 0;    ///< the plan's exact completion, cycles
  std::size_t num_messages = 0;
  std::vector<ProcProgram> procs;          ///< size params.P
  std::vector<Instr> instrs;               ///< every rank's stream
  std::vector<Link> links;                 ///< mailbox directory
  std::vector<InitialPlacement> initials;  ///< kMove: pre-filled slots

  /// Rank p's instruction stream.
  [[nodiscard]] std::span<const Instr> stream(std::size_t p) const {
    const ProcProgram& pp = procs[p];
    return {instrs.data() + pp.begin, pp.size()};
  }
  [[nodiscard]] std::span<Instr> stream(std::size_t p) {
    const ProcProgram& pp = procs[p];
    return {instrs.data() + pp.begin, pp.size()};
  }

  /// Equal machine, metadata, links and initials, and rank by rank equal
  /// streams (proc, sum_index, num_operands and instructions); where in
  /// `instrs` a stream sits does not count.
  friend bool operator==(const Program& a, const Program& b);
};

/// Lowers a move-semantics schedule (broadcast, k-item, scatter, gather,
/// all-to-all, personalized).  Throws std::invalid_argument if a processor
/// would send an item it cannot hold yet — a plan bug the compiler refuses
/// to turn into a hang.
[[nodiscard]] Program compile_broadcast(const Schedule& s,
                                        std::string label = "bcast");

/// Lowers a message reduction: receives fold, the final send carries the
/// accumulator.  Fold order per processor is arrival order, matching
/// bcast::execute_reduction.  Throws std::invalid_argument if a processor
/// would receive after its send.
[[nodiscard]] Program compile_reduction(const bcast::ReductionPlan& plan);

/// Lowers an implicit plan from one walk of its tree
/// (ImplicitPlan::sends), equal (Program::operator==, links included) to
/// compile_broadcast / compile_reduction of the materialized schedule for
/// the same key.  `label` defaults to "bcast" / "reduce" by plan kind.
[[nodiscard]] Program compile_implicit(const runtime::ImplicitPlan& plan,
                                       std::string label = {});

/// Lowers a cached runtime::Plan: from its implicit form when it carries
/// one, from its sum::SummationPlan for a summation, otherwise from its
/// schedule with move semantics.  Every kReduce plan is implicit-only
/// (runtime::implicit_only_plan), so reductions always lower with fold
/// semantics.  This is the one place a planned collective chooses its
/// lowering.
[[nodiscard]] Program compile_plan(const runtime::Plan& plan,
                                   std::string label);

/// Lowers a summation plan: local chunks from sum::operand_layout
/// interleave with receptions; processors outside plan.procs get empty
/// streams.  Throws std::invalid_argument if recv_from and send_to disagree.
[[nodiscard]] Program compile_summation(const sum::SummationPlan& plan,
                                        std::string label = "summation");

/// Relabels a compiled program by swapping processors `a` and `b`:
/// instruction streams, link endpoints and initial placements all move
/// together, so the relabeled program executes the same schedule with the
/// two ranks' roles exchanged.  This is how a root-normalized plan serves
/// an arbitrary root — the k-item cache keys pin root = 0 (the schedule
/// shape is root-invariant), and the serving layer swaps 0 with the
/// requested root at compile time instead of splitting the plan cache.
/// Throws std::invalid_argument when either rank is out of range.
[[nodiscard]] Program relabel_swapped(Program program, ProcId a, ProcId b);

}  // namespace logpc::exec
