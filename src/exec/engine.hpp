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

/// \file engine.hpp
/// The shared-memory execution engine: runs a compiled Program by stepping
/// one resumable cursor per logical LogP processor on the calling thread,
/// moving real payload bytes through one bounded lock-free mailbox per
/// directed link.  A rank runs until its next send finds the ceil(L/g)
/// mailbox full or its next receive finds it empty; then the next runnable
/// rank goes, and every push or pop makes the rank at the link's other end
/// runnable again.  A valid schedule's dependency graph is acyclic, so
/// some rank can always advance: a fault-free run in which none can is a
/// deadlock, and run() throws at once, naming every blocked rank and its
/// pending instruction.  No run starts a thread.
///
/// kMove runs deliver in place: every slot the plan touches is sized in
/// its final ExecReport::items buffer before the first step, initial
/// placements are copied straight from the caller's bytes, and each
/// receive is one memcpy into its slot — there is no staging area and no
/// copy-out pass.
///
/// An Engine keeps a warm RunContext (mailboxes, ack rings, cursors, slot
/// tables) alive across runs; RunContext::prepare rewinds rather than
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
/// what exec::measure() fits effective (L, o, g) from.
///
/// Every run records per-processor send/recv timestamps and the observed
/// delivery sequence (cross-checkable with validate::check_delivery_order),
/// increments the logpc_exec_* metrics, and wraps itself in an obs span,
/// so executions land in the Chrome-trace exporter next to sim::Trace
/// timelines.
///
/// Fault tolerance: pass a fault::Injector to run() and the engine
/// switches every link to *acked delivery* — the injector argument is the
/// one switch; an injector over an empty FaultSpec injects nothing and
/// runs the protocol alone.  Messages carry per-link sequence numbers,
/// receivers acknowledge acceptance on a reverse ring, senders retransmit
/// after a timeout with exponential backoff, and receivers discard
/// retransmitted duplicates exactly-once.  The same stepper runs it: a
/// live rank's heartbeat moves whenever the engine visits it, a crashed
/// one's never does, and injected delays and slow-rank stalls are
/// not-before times on the rank's cursor.  When no rank can advance, the
/// engine walks the exec::Waiter ladder and on each slow tick runs the
/// watchdog deadline, the failure detector and retransmits for every
/// blocked rank.  A rank whose heartbeat stays frozen for 25 ms while a
/// peer waits on it is declared dead: the run drains every mailbox and
/// throws RankFailure naming the rank — api::Communicator::run_broadcast_ft
/// catches it and re-plans over the survivors.  Without an injector the
/// fast path is byte-identical to the unreliable engine.

namespace logpc::exec {

// Bytes, CombineFn and the typed-kernel Combiner live in exec/kernels.hpp;
// this header re-exports them through its include for source compatibility.

/// One timed operation on one processor.  Timestamps are nanoseconds on
/// the steady clock, relative to the run's start.
struct ExecEvent {
  enum class Kind : std::uint8_t { kSend, kRecv };
  Kind kind = Kind::kSend;
  ProcId peer = kNoProc;
  ItemId item = 0;
  std::uint64_t start_ns = 0;  ///< op begin (includes any blocking wait)
  std::uint64_t xfer_ns = 0;   ///< send: push accepted; recv: payload arrived
  std::uint64_t end_ns = 0;    ///< payload copied / folded, op complete
  Time planned = 0;            ///< planned cycle of this event
};

/// Thrown by Engine::run when the failure detector declares a rank dead:
/// a peer waited on the rank while its heartbeat stayed frozen.  The
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
  std::size_t retries = 0;     ///< retransmissions under acked delivery
  std::size_t duplicates = 0;  ///< retransmitted copies discarded exactly-once
  std::size_t kernel_folds = 0;   ///< folds taken by the typed SIMD kernel
  std::size_t generic_folds = 0;  ///< folds through the type-erased lane
  /// True: no OS thread is spawned on the request path, because every
  /// run steps its ranks on the calling thread.  Kept so readers of a
  /// report (the service's pools, benchmarks) need not special-case it.
  bool warm_pool = true;
  /// True when the run reused the engine's RunContext warm: same shape as
  /// the previous run, so mailboxes, ack rings, drain queues and cursors
  /// were recycled with zero allocation.
  bool warm_buffers = false;
  /// Per-processor event logs, in stream order.  Guarantee (asserted after
  /// every run): `events[p]` is non-decreasing in start_ns — in fact each
  /// op completes before the next begins (start_ns[i+1] >= end_ns[i]),
  /// because a rank's cursor records its events sequentially on the
  /// steady clock.  obs::analyze() builds the causal DAG on top of this.
  std::vector<std::vector<ExecEvent>> events;  ///< [proc], in stream order
  std::vector<std::vector<validate::DeliveryRecord>> deliveries;  ///< [proc]
  /// Injected faults, per processor in injection order.  Decisions are
  /// deterministic in the fault seed, so two same-seed runs produce equal
  /// logs (duplicate discards, which depend on retransmit timing, are
  /// counted in `duplicates` instead).
  std::vector<std::vector<fault::FaultEvent>> fault_events;
  std::vector<std::vector<Bytes>> items;  ///< kMove results: [proc][item]
  std::vector<Bytes> folded;  ///< kFold/kSum accumulators: [proc]

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

class Engine {
 public:
  /// Every mailbox holds the model's capacity ceil(L/g) and records its
  /// high-water mark (ExecReport::max_mailbox_occupancy).  The acked-
  /// delivery protocol's timings are constants in engine.cpp, sized for
  /// the fault tests: sub-millisecond retransmits, tens of milliseconds to
  /// a death verdict.
  struct Options {
    /// Abort an acked-delivery run that is still waiting this long after
    /// it started (a plan or engine bug must fail loudly, not hang the
    /// caller).  The clock starts when the run begins, not while it queues
    /// behind another run.  A fault-free run never waits: when no rank can
    /// advance it throws at once.
    std::uint64_t timeout_ms = 20000;
  };

  Engine() = default;
  explicit Engine(Options options) : opts_(options) {}

  /// Runs `program` over `inputs`.  Throws std::invalid_argument before
  /// dispatch when the inputs do not fit the program: an alternative of
  /// the wrong Mode, a count that does not match (items, values,
  /// operands), a Combiner without an operator, or an empty Payload for a
  /// multi-item program.  Every processor named in an initial placement
  /// starts with its items seeded.  `injector` (optional, non-owning, must
  /// outlive the call) enables fault injection plus the acked-delivery
  /// protocol.
  ExecReport run(const Program& program, const Inputs& inputs,
                 const fault::Injector* injector = nullptr);

  /// The process-wide engine api::Communicator's run_* entry points use by
  /// default.
  ///
  /// Thread-safety contract (all engines, enforced by run_mu_): run() may
  /// be called from any number of threads concurrently; runs serialize on
  /// the engine's run mutex, each getting its full watchdog budget from
  /// dispatch (not from when it started queueing).  Options are fixed at
  /// construction and immutable afterwards — there is deliberately no
  /// setter, so a run never observes a torn options struct and the shared
  /// engine always carries the defaults.  A caller needing a different
  /// timeout constructs its own Engine.
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
                      bool reliable, std::size_t kernel_bytes,
                      const std::vector<double>& backoffs_ns);

  Options opts_;
  /// Serializes runs on this engine *before* the watchdog clock starts, so
  /// a run queued behind a long one gets its full timeout budget.
  std::mutex run_mu_;
  /// Warm per-run resources, reused across same-shape runs (guarded by
  /// run_mu_ — exactly one run touches it at a time).
  RunContext ctx_;
  /// Metric handles, so a warm run takes no registry lock (run_mu_).
  std::unordered_map<std::string, LabelMetrics> label_metrics_;
  std::array<KernelMetrics, kNumOps * kNumDTypes> kernel_metrics_{};
};

}  // namespace logpc::exec
