#pragma once

#include <memory>
#include <optional>
#include <span>

#include "bcast/all_to_all.hpp"
#include "bcast/combining.hpp"
#include "bcast/kitem.hpp"
#include "bcast/kitem_buffered.hpp"
#include "bcast/reduction.hpp"
#include "bcast/single_item.hpp"
#include "exec/engine.hpp"
#include "runtime/planner.hpp"
#include "sum/summation_tree.hpp"

/// \file communicator.hpp
/// The high-level entry point: an MPI-communicator-style facade that turns
/// measured machine parameters into optimal collective schedules and exact
/// cycle predictions.  This is what a runtime tuning layer would link
/// against; everything it returns is constructed by the paper's algorithms
/// and audited by validate::check in this library's tests.
///
/// The five executable collectives (broadcast, k-item broadcast, reduce,
/// all-to-all and summation; runtime::Problem) resolve through the
/// planning runtime (src/runtime): requests hit a shared, thread-safe plan
/// cache keyed on the canonical (problem, P, L, o, g, k, root) signature,
/// so repeated and concurrent requests for the same collective reuse one
/// construction.  By default all Communicator instances share one
/// process-wide Planner; pass your own to isolate its cache.  The
/// schedule-only getters (bcast_k_buffered, scatter, gather,
/// alltoall_personalized, allreduce) call their builders directly.

namespace logpc::api {

/// Scatter/gather cost: the source must emit (receive) P-1 distinct
/// messages serialized by g, the last landing after a full transfer.
[[nodiscard]] Time scatter_time(const Params& params);

/// What to do when the engine's failure detector declares a rank dead
/// mid-collective.
enum class FailurePolicy : std::uint8_t {
  kAbort,   ///< rethrow exec::RankFailure to the caller
  kReplan,  ///< exclude the rank, re-plan on the survivors, run again
};

/// How a fault-tolerant run ended.
enum class RunStatus : std::uint8_t {
  kOk,         ///< completed on the full machine, no rank lost
  kRecovered,  ///< one or more ranks died; completed on the survivors
  kFailed,     ///< unrecoverable (root died, budget exhausted, P > 64)
};

/// Options for run_broadcast_ft.
struct FtRunOptions {
  FailurePolicy policy = FailurePolicy::kReplan;
  /// Faults to inject (deterministic in FaultSpec::seed); nullopt runs
  /// fault-free but still under acked delivery + failure detection.
  std::optional<fault::FaultSpec> faults;
};

/// Outcome of a fault-tolerant run.  `report` processor i is physical rank
/// survivors[i] — on the fault-free path survivors is just 0..P-1.
struct FtRunResult {
  RunStatus status = RunStatus::kOk;
  exec::ExecReport report;          ///< the completed (possibly degraded) run
  std::vector<ProcId> survivors;    ///< physical rank of each report proc
  std::vector<ProcId> failed_ranks; ///< physical ranks excluded, in order
  int attempts = 0;                 ///< engine runs performed (1 = no failure)
  std::uint64_t recovery_ns = 0;    ///< first failure -> degraded completion
  std::string error;                ///< set when status == kFailed
  runtime::PlanPtr plan;            ///< the plan the final run executed
};

/// A machine-bound planner for the paper's collectives.
///
/// All methods are const, deterministic and thread-safe; schedules use
/// processor ids 0..P-1 with the root/source as stated.  Methods returning
/// Time only are exact cycle counts of the corresponding schedule.
class Communicator {
 public:
  /// \param planner the planning service to resolve through; nullptr means
  ///        the process-wide runtime::Planner::shared_default().
  explicit Communicator(Params params,
                        std::shared_ptr<runtime::Planner> planner = nullptr);

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] int size() const { return params_.P; }

  /// The planning service this communicator resolves collectives through.
  [[nodiscard]] const std::shared_ptr<runtime::Planner>& planner() const {
    return planner_;
  }

  /// Cached plan for any problem on this machine (zero-copy: the returned
  /// plan is the immutable cache entry itself).  Arguments as
  /// runtime::PlanKey::make, i.e. stated on this physical machine.
  [[nodiscard]] runtime::PlanPtr plan(runtime::Problem problem,
                                      std::int64_t k = 1,
                                      ProcId root = 0) const;

  /// The executable lowering of the cached plan for `problem` —
  /// kBroadcast, kKItemBroadcast (k = segment count; the root-0
  /// plan is relabeled for other roots, so all roots share one cache
  /// entry), kReduce, kAllToAll (k = 1 is the allgather the run path uses)
  /// or kSummation (k = operand count n).  This is the
  /// exact program the corresponding run_* method would execute; a serving
  /// layer (svc::CollectiveService) caches the returned Program per
  /// (problem, k, root) and hands it straight to its pool engines, paying
  /// plan lookup + compilation once instead of per request.  Every Problem
  /// compiles; std::invalid_argument for an out-of-range root.
  [[nodiscard]] exec::Program compile(runtime::Problem problem,
                                      std::int64_t k = 1,
                                      ProcId root = 0) const;

  // --- one-to-all -------------------------------------------------------
  /// Optimal single-item broadcast (Theorem 2.1).
  [[nodiscard]] Schedule bcast(ProcId root = 0) const;
  [[nodiscard]] Time bcast_time() const;

  /// Single-sending k-item broadcast in the postal projection of this
  /// machine (effective hop latency L + 2o; Section 3).  Returns the
  /// block-cyclic construction with its exact completion.
  [[nodiscard]] bcast::KItemResult bcast_k(int k) const;

  /// The modified-model (buffered) k-item broadcast (Theorem 3.8), in the
  /// postal projection of this machine like bcast_k.
  [[nodiscard]] bcast::BufferedKItemResult bcast_k_buffered(int k) const;

  /// One distinct message from the root to every processor.
  [[nodiscard]] Schedule scatter(ProcId root = 0) const;
  [[nodiscard]] Time scatter_time() const { return api::scatter_time(params_); }

  // --- all-to-one -------------------------------------------------------
  /// Optimal message reduction (reversed broadcast, Section 4.2).
  [[nodiscard]] bcast::ReductionPlan reduce(ProcId root = 0) const;
  [[nodiscard]] Time reduce_time() const { return bcast_time(); }

  /// One distinct message from every processor to the root.
  [[nodiscard]] Schedule gather(ProcId root = 0) const;
  [[nodiscard]] Time gather_time() const { return api::scatter_time(params_); }

  /// Summation of n input operands with unit-cost additions (Section 5);
  /// requires g >= o + 1.  Both read the cached kSummation plan.
  [[nodiscard]] sum::SummationPlan reduce_operands(Count n) const;
  [[nodiscard]] Time reduce_operands_time(Count n) const;

  // --- all-to-all -------------------------------------------------------
  /// Optimal all-to-all broadcast, k items per processor (Section 4.1).
  [[nodiscard]] Schedule alltoall(int k = 1) const;
  [[nodiscard]] Time alltoall_time(int k = 1) const;

  /// Optimal all-to-all personalized communication (same rotation).
  [[nodiscard]] Schedule alltoall_personalized() const;

  /// All-reduce via combining broadcast (Theorem 4.1), postal projection.
  /// Completion equals reduce_time in the postal metric - half of
  /// reduce-then-broadcast.  The returned schedule runs on P' = f_T >= P
  /// ring slots; when P is not a Fibonacci size, map the first P slots to
  /// real processors and pad the rest with the operator identity.
  [[nodiscard]] bcast::CombiningSchedule allreduce() const;
  [[nodiscard]] Time allreduce_time() const;

  // --- execution (plan, then run on the exec engine) ---------------------
  // Each run_* method resolves its plan through the planner, compiles it
  // to per-processor instruction streams and executes it on the exec
  // engine — P rank cursors, stepped on the calling thread, exchanging
  // payload bytes through bounded per-link mailboxes.  Pass `engine` to
  // control its warm context and timeout; nullptr uses the process-wide
  // exec::Engine::shared().

  /// Broadcasts `payload` (one item) from `root` to all P processors;
  /// report.item_at(p, 0) holds every copy.
  [[nodiscard]] exec::ExecReport run_broadcast(
      std::span<const std::byte> payload, ProcId root = 0,
      exec::Engine* engine = nullptr) const;

  /// Message reduction of one value per processor (values[p] is p's
  /// contribution), folded with `op` in the plan's arrival order;
  /// report.folded_at(root) is the result.  `op` must be associative.  A
  /// typed combiner's size-matched folds take the fused SIMD kernel for
  /// op.spec() (exec::ExecReport::kernel_folds counts them); one built
  /// from a CombineFn, and mismatched sizes, take the scalar lane.
  [[nodiscard]] exec::ExecReport run_reduce(
      const std::vector<exec::Bytes>& values, const exec::Combiner& op,
      ProcId root = 0, exec::Engine* engine = nullptr) const;

  /// All-gather via the Section 4.1 all-to-all broadcast: every processor
  /// contributes contributions[p] and ends holding all P payloads
  /// (report.item_at(p, q) == contributions[q] for all p, q).
  [[nodiscard]] exec::ExecReport run_allgather(
      const std::vector<exec::Bytes>& contributions,
      exec::Engine* engine = nullptr) const;

  /// Fault-tolerant broadcast: runs under the engine's acked-delivery
  /// protocol (with `options.faults` injected when set) and, under
  /// FailurePolicy::kReplan, survives rank deaths by asking the planner
  /// for a fresh optimal schedule over the survivors — the key gains a
  /// membership mask, the 𝔅 tree is universal so the degraded plan is
  /// itself optimal — and re-running until the collective completes or the
  /// recovery budget (two rank deaths) is spent.  Requires P <= 64 to recover
  /// (the mask is one machine word); a dead root is unrecoverable by
  /// construction.  Builds a private default engine, so a deliberately
  /// killed rank never poisons the shared pool.
  [[nodiscard]] FtRunResult run_broadcast_ft(
      std::span<const std::byte> payload, ProcId root = 0,
      const FtRunOptions& options = {}) const;

  /// Section 5 summation executed on the exec engine: plans reduce_operands(n)
  /// and folds `operands` — laid out per sum::operand_layout of that plan
  /// (operands[i] belongs to plan.procs[i]; counts must match or the engine
  /// throws).  report.folded_at(plan root) equals the sequential left-fold
  /// of the operands in sum::combination_order — a typed combiner's
  /// size-matched folds run on the SIMD kernel in that same order.
  [[nodiscard]] exec::ExecReport run_reduce_operands(
      Count n, const std::vector<std::vector<exec::Bytes>>& operands,
      const exec::Combiner& op, exec::Engine* engine = nullptr) const;

 private:
  Params params_;
  std::shared_ptr<runtime::Planner> planner_;
  /// Postal projection for the Section 3/4.2 algorithms: g normalized to 1
  /// cycle-groups, overheads folded into the latency (L' = L + 2o).
  [[nodiscard]] Params postal_projection() const;
};

}  // namespace logpc::api
