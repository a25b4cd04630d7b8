#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "exec/context.hpp"
#include "exec/kernels.hpp"
#include "exec/mailbox.hpp"
#include "exec/program.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "validate/checker.hpp"

/// \file engine.hpp
/// The shared-memory execution engine: runs a compiled Program by stepping
/// one resumable cursor per logical LogP processor on the calling thread,
/// moving real payload bytes through one bounded mailbox per directed
/// link.  A rank runs until its next send finds the ceil(L/g)
/// mailbox full or its next receive finds it empty; then the next runnable
/// rank goes, and every push or pop makes the rank at the link's other end
/// runnable again.  A valid schedule's dependency graph is acyclic, so
/// some rank can always advance: a run in which none can (and none sits
/// out an injected stall) is a deadlock, and run() throws at once, naming
/// every blocked rank and its pending instruction.  No run starts a thread.
///
/// kMove runs deliver in place: every slot the plan touches is sized in
/// its final ExecReport::items buffer before the first step, initial
/// placements are copied straight from the caller's bytes, and each
/// receive is one memcpy into its slot — there is no staging area and no
/// copy-out pass.
///
/// An Engine keeps a warm RunContext (mailboxes, cursors, slot tables)
/// alive across runs; RunContext::prepare rewinds rather than
/// rebuilds when consecutive runs share a shape, and
/// ExecReport::warm_buffers records which path a run took.
/// svc::CollectiveService keeps a small set of engines as its persistent
/// pools.
///
/// Execution is as-fast-as-possible: planned cycles order each stream but
/// never pace it.  The model's constraints survive as *structure* — the
/// per-processor instruction order, the per-link FIFO, and the mailbox
/// bound of ceil(L/g) messages (the capacity constraint) — so a run is the
/// plan's dependency graph executed raw, and the returned timestamps are
/// what obs::analyze fits effective (L, o, g) from.
///
/// Every run records per-processor send/recv timestamps, and each receive
/// names the send whose message it accepted (ExecEvent::match): one thread
/// pops every message, so the causal pairing is known at the pop and no
/// reader has to rebuild it.  The observed delivery sequence
/// (ExecReport::deliveries(), cross-checkable with
/// validate::check_delivery_order) is a projection of the same events.
/// Every run increments the logpc_exec_* metrics and wraps itself in an
/// obs span, so executions land in the Chrome-trace exporter next to
/// sim::Trace timelines.
///
/// Fault injection: pass a fault::Injector to run() and the stepper
/// applies its faults under the same stepping rule as a fault-free run —
/// a send completes at its push, a receive at its pop.  The stepper owns
/// every rank, so it sees every fault directly.  A dropped delivery is
/// logged and resent at the pop (one ExecReport::retries per drop) until
/// the injector lets it through.  Injected delays and slow-rank stalls are
/// not-before times on the rank's cursor; when no rank can advance, the
/// run sleeps until the earliest stall ends.  A crash-stopped rank makes
/// no further move: once no live rank can advance and none is stalled,
/// the run throws RankFailure naming it (the next run's prepare() clears
/// what it left in the rings) — api::Communicator::run_broadcast_ft
/// catches it and re-plans over the survivors.  Without a crashed rank
/// such a run is a deadlock, as without an injector.

namespace logpc::exec {

// Bytes, CombineFn and the typed-kernel Combiner live in exec/kernels.hpp;
// this header re-exports them through its include for source compatibility.

/// One timed operation on one processor.  Timestamps are nanoseconds on
/// the steady clock, relative to the run's start.
struct ExecEvent {
  enum class Kind : std::uint8_t { kSend, kRecv };
  /// `match` of a send, and of a receive in a hand-built log that does not
  /// know its cause.
  static constexpr std::uint32_t kNoMatch = UINT32_MAX;

  Kind kind = Kind::kSend;
  ProcId peer = kNoProc;
  ItemId item = 0;
  /// Receive: the index in events[peer] of the send whose message this
  /// receive accepted.  Recorded by the engine at the pop.
  std::uint32_t match = kNoMatch;
  std::uint64_t start_ns = 0;  ///< op begin (includes any blocking wait)
  std::uint64_t xfer_ns = 0;   ///< send: push accepted; recv: payload arrived
  std::uint64_t end_ns = 0;    ///< payload copied / folded, op complete
  Time planned = 0;            ///< planned cycle of this event
};

/// Thrown by Engine::run when an injected crash-stop leaves the run unable
/// to complete: no live rank can advance and none is stalled.  The
/// recovery layer excludes rank() and re-plans; everyone else treats it as
/// the runtime_error it is.
class RankFailure : public std::runtime_error {
 public:
  RankFailure(ProcId rank, const std::string& what)
      : std::runtime_error(what), rank_(rank) {}
  [[nodiscard]] ProcId rank() const { return rank_; }

 private:
  ProcId rank_;
};

/// Everything a run produced: result buffers, measured timestamps, the
/// observed delivery order, and the run-level tallies.
struct ExecReport {
  Params params;
  Mode mode = Mode::kMove;
  std::string label;
  Time predicted_makespan = 0;     ///< plan cycles
  std::uint64_t wall_ns = 0;       ///< measured makespan, dispatch to barrier
  std::size_t messages = 0;
  std::size_t payload_bytes = 0;   ///< bytes moved through mailboxes
  std::size_t mailbox_capacity = 0;
  std::size_t max_mailbox_occupancy = 0;  ///< high-water mark over all links
  std::size_t retries = 0;  ///< deliveries resent after an injected drop
  std::size_t kernel_folds = 0;   ///< folds taken by the typed SIMD kernel
  std::size_t generic_folds = 0;  ///< folds through the type-erased lane
  /// True: no OS thread is spawned on the request path, because every
  /// run steps its ranks on the calling thread.  Kept so readers of a
  /// report (the service's pools, benchmarks) need not special-case it.
  bool warm_pool = true;
  /// True when the run reused the engine's RunContext warm: same shape as
  /// the previous run, so mailboxes and cursors were recycled with zero
  /// allocation.
  bool warm_buffers = false;
  /// Per-processor event logs, in stream order.  Guarantee (asserted after
  /// every run): `events[p]` is non-decreasing in start_ns — in fact each
  /// op completes before the next begins (start_ns[i+1] >= end_ns[i]),
  /// because a rank's cursor records its events sequentially on the
  /// steady clock.  Each receive's `match` names its send, so obs::analyze()
  /// reads the causal DAG straight off these logs.
  std::vector<std::vector<ExecEvent>> events;  ///< [proc], in stream order
  /// Injected faults, per processor in injection order.  Decisions are
  /// deterministic in the fault seed, so two same-seed runs produce equal
  /// logs and equal `retries`.
  std::vector<std::vector<fault::FaultEvent>> fault_events;
  std::vector<std::vector<Bytes>> items;  ///< kMove results: [proc][item]
  std::vector<Bytes> folded;  ///< kFold/kSum accumulators: [proc]

  /// The observed delivery sequence, [proc]: each receive event's (peer,
  /// item) in stream order — the observed side of
  /// validate::check_delivery_order and validate::check_exactly_once.
  [[nodiscard]] std::vector<std::vector<validate::DeliveryRecord>>
  deliveries() const;

  /// kMove: processor p's copy of `item`.
  [[nodiscard]] const Bytes& item_at(ProcId p, ItemId item) const {
    return items[static_cast<std::size_t>(p)][static_cast<std::size_t>(item)];
  }
  /// kFold/kSum: processor p's final accumulator (the collective's result
  /// when p is the root).
  [[nodiscard]] const Bytes& folded_at(ProcId p) const {
    return folded[static_cast<std::size_t>(p)];
  }
};

/// kMove over one logical payload — every broadcast's input.  The payload
/// is split into the program's num_items near-equal contiguous ranges
/// (sizes differ by at most one byte, longer ranges first), and each
/// processor the plan touches gets ONE result buffer the size of the whole
/// payload with every range delivered in place: ExecReport::items[p] is a
/// single Bytes equal to the payload, for a k-item pipeline exactly as for
/// the single-item tree.  A single-item program accepts an empty payload;
/// a multi-item one rejects it.
struct Payload {
  std::span<const std::byte> bytes;
};

/// kMove, one buffer per item: `values[i]` is item i's payload (sizes may
/// differ per item), and ExecReport::items[p][i] holds what the plan
/// delivered to p.  Needs exactly num_items values.
struct Items {
  std::span<const Bytes> values;
};

/// kFold: `values[p]` is processor p's initial value (exactly P of them);
/// receives fold with `op` in arrival order and the root's accumulator is
/// the result.  A typed Combiner (built from a KernelSpec) takes the fused
/// SIMD lane on every size-matched fold; one built from a CombineFn is the
/// fully generic path.
struct FoldValues {
  std::span<const Bytes> values;
  const Combiner& op;
};

/// kSum: `operands[i]` are the local operands of plan.procs[i] (counts
/// must match sum::operand_layout), folded with `op` in the plan's
/// combination order.
struct Operands {
  std::span<const std::vector<Bytes>> operands;
  const Combiner& op;
};

/// What one run consumes: one alternative per value semantics.  Every
/// alternative is a non-owning view; the viewed bytes and combiner must
/// outlive the run() call.
using Inputs = std::variant<Payload, Items, FoldValues, Operands>;

/// Every mailbox holds the model's capacity ceil(L/g) and records its
/// high-water mark (ExecReport::max_mailbox_occupancy).  An engine has no
/// options: a run that cannot progress throws at once.
class Engine {
 public:

  /// Runs `program` over `inputs`.  Throws std::invalid_argument before
  /// dispatch when the inputs do not fit the program: an alternative of
  /// the wrong Mode, a count that does not match (items, values,
  /// operands), a Combiner without an operator, or an empty Payload for a
  /// multi-item program.  Every processor named in an initial placement
  /// starts with its items seeded.  `injector` (optional, non-owning, must
  /// outlive the call) enables fault injection.
  ExecReport run(const Program& program, const Inputs& inputs,
                 const fault::Injector* injector = nullptr);

  /// The process-wide engine api::Communicator's run_* entry points use by
  /// default.
  ///
  /// Thread-safety contract (all engines, enforced by run_mu_): run() may
  /// be called from any number of threads concurrently; runs serialize on
  /// the engine's run mutex.
  static Engine& shared();

 private:
  /// The logpc_exec_* instruments of one program label, resolved once.
  struct LabelMetrics {
    obs::Counter* runs;
    obs::Counter* messages;
    obs::Counter* payload_bytes;
    obs::Counter* warm_runs;
    obs::Histogram* latency;
  };
  /// The typed-kernel counters of one (op, dtype), resolved on first use.
  struct KernelMetrics {
    obs::Counter* folds = nullptr;
    obs::Counter* fold_bytes = nullptr;
    obs::Counter* fallback_folds = nullptr;
  };

  void record_metrics(const ExecReport& report, const Combiner* op,
                      bool faults, std::size_t kernel_bytes);

  /// Serializes runs on this engine.
  std::mutex run_mu_;
  /// Warm per-run resources, reused across same-shape runs (guarded by
  /// run_mu_ — exactly one run touches it at a time).
  RunContext ctx_;
  /// Metric handles, so a warm run takes no registry lock (run_mu_).
  std::unordered_map<std::string, LabelMetrics> label_metrics_;
  std::array<KernelMetrics, kNumOps * kNumDTypes> kernel_metrics_{};
};

}  // namespace logpc::exec
