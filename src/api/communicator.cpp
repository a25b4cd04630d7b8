#include "api/communicator.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bcast/kitem_bounds.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "runtime/implicit_plan.hpp"

namespace logpc::api {

using runtime::PlanKey;
using runtime::PlanPtr;

Time scatter_time(const Params& params) {
  params.require_valid();
  if (params.P == 1) return 0;
  return (params.P - 2) * params.g + params.transfer_time();
}

Communicator::Communicator(Params params,
                           std::shared_ptr<runtime::Planner> planner)
    : params_(params),
      planner_(planner ? std::move(planner)
                       : runtime::Planner::shared_default()) {
  params.require_valid();
}

Params Communicator::postal_projection() const {
  return Params::postal(params_.P, params_.transfer_time());
}

runtime::PlanPtr Communicator::plan(runtime::Problem problem, std::int64_t k,
                                    ProcId root) const {
  const obs::Span span("comm.plan", "comm");
  return planner_->plan(problem, params_, k, root);
}

Schedule Communicator::bcast(ProcId root) const {
  const obs::Span span("comm.bcast", "comm");
  // plan_schedule materializes on demand when the plan is implicit-only
  // (large P past the planner's materialize threshold).
  return runtime::plan_schedule(
      *planner_->plan(PlanKey::broadcast(params_, root)));
}

Time Communicator::bcast_time() const {
  return bcast::B_of_P(params_, params_.P);
}

bcast::KItemResult Communicator::bcast_k(int k) const {
  const obs::Span span("comm.bcast_k", "comm");
  const PlanPtr plan = planner_->plan(PlanKey::kitem(params_, k));
  bcast::KItemResult r;
  r.schedule = plan->schedule;
  r.method = plan->method == "greedy"
                 ? bcast::KItemMethod::kGreedy
                 : bcast::KItemMethod::kContinuousBlockCyclic;
  r.bounds = bcast::kitem_bounds(plan->key.params.P, plan->key.params.L, k);
  r.completion = plan->completion;
  r.slack = plan->slack;
  return r;
}

bcast::BufferedKItemResult Communicator::bcast_k_buffered(int k) const {
  const obs::Span span("comm.bcast_k_buffered", "comm");
  const PlanPtr plan = planner_->plan(PlanKey::kitem_buffered(params_, k));
  bcast::BufferedKItemResult r;
  r.schedule = plan->schedule;
  r.bounds = bcast::kitem_bounds(plan->key.params.P, plan->key.params.L, k);
  r.completion = plan->completion;
  r.max_buffer_depth = plan->max_buffer_depth;
  return r;
}

Schedule Communicator::scatter(ProcId root) const {
  const obs::Span span("comm.scatter", "comm");
  if (root < 0 || root >= params_.P) {
    throw std::invalid_argument("Communicator::scatter: bad root");
  }
  return planner_->plan(PlanKey::scatter(params_, root))->schedule;
}

bcast::ReductionPlan Communicator::reduce(ProcId root) const {
  const obs::Span span("comm.reduce", "comm");
  const PlanPtr plan = planner_->plan(PlanKey::reduce(params_, root));
  bcast::ReductionPlan r;
  r.params = params_;
  r.root = root;
  r.schedule = runtime::plan_schedule(*plan);
  r.completion = plan->completion;
  return r;
}

Schedule Communicator::gather(ProcId root) const {
  const obs::Span span("comm.gather", "comm");
  if (root < 0 || root >= params_.P) {
    throw std::invalid_argument("Communicator::gather: bad root");
  }
  return planner_->plan(PlanKey::gather(params_, root))->schedule;
}

sum::SummationPlan Communicator::reduce_operands(Count n) const {
  const obs::Span span("comm.reduce_operands", "comm");
  return sum::optimal_summation(params_,
                                sum::min_time_for_operands(params_, n));
}

Time Communicator::reduce_operands_time(Count n) const {
  return sum::min_time_for_operands(params_, n);
}

Schedule Communicator::alltoall(int k) const {
  const obs::Span span("comm.alltoall", "comm");
  return planner_->plan(PlanKey::alltoall(params_, k))->schedule;
}

Time Communicator::alltoall_time(int k) const {
  return bcast::all_to_all_lower_bound(params_, k);
}

Schedule Communicator::alltoall_personalized() const {
  const obs::Span span("comm.alltoall_personalized", "comm");
  return planner_->plan(PlanKey::alltoall_personalized(params_))->schedule;
}

bcast::CombiningSchedule Communicator::allreduce() const {
  const obs::Span span("comm.allreduce", "comm");
  const PlanPtr plan = planner_->plan(PlanKey::allreduce(params_));
  bcast::CombiningSchedule cs;
  cs.params = plan->schedule.params();
  cs.T = plan->completion;
  cs.sends = plan->schedule.sends();
  return cs;
}

Time Communicator::allreduce_time() const {
  const Params postal = postal_projection();
  return bcast::combining_time_for(postal.P, postal.L);
}

namespace {
exec::Engine& engine_or_shared(exec::Engine* engine) {
  return engine != nullptr ? *engine : exec::Engine::shared();
}
}  // namespace

exec::Program Communicator::compile(runtime::Problem problem, std::int64_t k,
                                    ProcId root) const {
  const obs::Span span("comm.compile", "comm");
  switch (problem) {
    case runtime::Problem::kBroadcast:
      return exec::compile_plan(
          *planner_->plan(PlanKey::broadcast(params_, root)), "bcast");
    case runtime::Problem::kKItemBroadcast: {
      // Segmented broadcast: the Section 3 single-sending k-item schedule,
      // one segment per item.  The cache key normalizes root to 0 (the
      // schedule shape is root-invariant), so a non-zero root is served by
      // swapping ranks 0 and root in the compiled program rather than
      // splitting the plan cache per root.
      if (root < 0 || root >= params_.P) {
        throw std::invalid_argument("Communicator::compile: bad root");
      }
      exec::Program program = exec::compile_plan(
          *planner_->plan(PlanKey::segmented_broadcast(params_, k)),
          "bcast-seg");
      if (root != 0) {
        program = exec::relabel_swapped(std::move(program), 0, root);
      }
      return program;
    }
    case runtime::Problem::kReduce:
      return exec::compile_plan(
          *planner_->plan(PlanKey::reduce(params_, root)), "reduce");
    case runtime::Problem::kAllToAll:
      return exec::compile_plan(
          *planner_->plan(PlanKey::alltoall(params_, static_cast<int>(k))),
          k == 1 ? "allgather" : "alltoall");
    case runtime::Problem::kSummation:
      return exec::compile_summation(reduce_operands(k));
    default:
      throw std::invalid_argument(
          "Communicator::compile: problem has no execution semantics");
  }
}

exec::ExecReport Communicator::run_broadcast(std::span<const std::byte> payload,
                                             ProcId root,
                                             exec::Engine* engine) const {
  const obs::Span span("comm.run_broadcast", "comm");
  const exec::Program program =
      compile(runtime::Problem::kBroadcast, 1, root);
  const std::vector<exec::Bytes> items{
      exec::Bytes(payload.begin(), payload.end())};
  return engine_or_shared(engine).run(program, items);
}

exec::ExecReport Communicator::run_broadcast_tuned(
    std::span<const std::byte> payload, ProcId root,
    exec::Engine* engine) const {
  const obs::Span span("comm.run_broadcast_tuned", "comm");
  runtime::PlanKey key = planner_->tuned_key(
      tune::Collective::kBroadcast, params_, payload.size(), root);
  if (key.problem == runtime::Problem::kKItemBroadcast && payload.empty()) {
    // A zero-byte payload cannot be sliced; the bulk tree is equivalent.
    key = runtime::PlanKey::broadcast(params_, root);
  }
  if (key.problem == runtime::Problem::kKItemBroadcast) {
    // Segmented winner: the k-item pipeline over payload/k slices, results
    // coalesced in place (Engine::run_segmented).
    return engine_or_shared(engine).run_segmented(
        compile(runtime::Problem::kKItemBroadcast, key.k, root),
        exec::SegmentRun{payload, static_cast<int>(key.k)});
  }
  const exec::Program program =
      exec::compile_plan(*planner_->plan(key), "bcast");
  const std::vector<exec::Bytes> items{
      exec::Bytes(payload.begin(), payload.end())};
  return engine_or_shared(engine).run(program, items);
}

exec::ExecReport Communicator::run_reduce(const std::vector<exec::Bytes>& values,
                                          const exec::Combiner& op,
                                          ProcId root,
                                          exec::Engine* engine) const {
  const obs::Span span("comm.run_reduce", "comm");
  const exec::Program program = compile(runtime::Problem::kReduce, 1, root);
  return engine_or_shared(engine).run(program, values, op);
}

exec::ExecReport Communicator::run_allgather(
    const std::vector<exec::Bytes>& contributions, exec::Engine* engine) const {
  const obs::Span span("comm.run_allgather", "comm");
  const exec::Program program = compile(runtime::Problem::kAllToAll, 1, 0);
  return engine_or_shared(engine).run(program, contributions);
}

FtRunResult Communicator::run_broadcast_ft(std::span<const std::byte> payload,
                                           ProcId root,
                                           const FtRunOptions& options) const {
  const obs::Span span("comm.run_broadcast_ft", "comm");
  if (root < 0 || root >= params_.P) {
    throw std::invalid_argument("Communicator::run_broadcast_ft: bad root");
  }
  exec::Engine::Options eng_opts = options.engine;
  eng_opts.recovery.enabled = true;
  exec::Engine engine(eng_opts);

  fault::FaultSpec spec = options.faults.value_or(fault::FaultSpec{});
  const bool inject = options.faults.has_value();
  const std::vector<exec::Bytes> items{
      exec::Bytes(payload.begin(), payload.end())};

  using Clock = std::chrono::steady_clock;
  Clock::time_point first_failure{};

  FtRunResult res;
  std::uint64_t mask = 0;  // 0 = full membership
  for (;;) {
    ++res.attempts;
    res.plan = planner_->plan(PlanKey::make(runtime::Problem::kBroadcast,
                                            params_, 1, root, mask));
    res.survivors = res.plan->key.live_ranks();
    // A masked plan's `implicit` (like its schedule) describes the compact
    // survivor machine.
    const exec::Program program = exec::compile_plan(*res.plan, "bcast-ft");
    std::optional<fault::Injector> injector;
    if (inject) injector.emplace(spec);
    try {
      res.report =
          engine.run(program, items, injector ? &*injector : nullptr);
    } catch (const exec::RankFailure& failure) {
      if (options.policy == FailurePolicy::kAbort) throw;
      if (res.failed_ranks.empty()) first_failure = Clock::now();
      // The engine reports the rank in the *current* (compacted) program's
      // rank space; map it back to the physical machine before excluding.
      const ProcId virtual_dead = failure.rank();
      const ProcId physical_dead =
          res.survivors[static_cast<std::size_t>(virtual_dead)];
      res.failed_ranks.push_back(physical_dead);
      obs::Span recover_span("exec.recover", "exec");
      if (recover_span.active()) {
        recover_span.set_arg("rank " + std::to_string(physical_dead) +
                             " dead, re-planning on " +
                             std::to_string(res.survivors.size() - 1) +
                             " survivors");
      }
      if (obs::enabled()) {
        obs::MetricsRegistry::global()
            .counter("logpc_fault_recoveries_total",
                     "rank failures survived by degraded re-planning")
            .inc();
      }
      if (physical_dead == root) {
        res.status = RunStatus::kFailed;
        res.error = std::string("root rank died: ") + failure.what();
        return res;
      }
      if (params_.P > 64) {
        res.status = RunStatus::kFailed;
        res.error = "recovery requires P <= 64 (membership mask is one word)";
        return res;
      }
      if (static_cast<int>(res.failed_ranks.size()) > options.max_recoveries) {
        res.status = RunStatus::kFailed;
        res.error = "recovery budget exhausted (" +
                    std::to_string(options.max_recoveries) +
                    " re-plans): " + failure.what();
        return res;
      }
      const std::uint64_t full =
          params_.P == 64 ? ~0ull : (1ull << params_.P) - 1;
      mask = (mask == 0 ? full : mask) & ~(1ull << physical_dead);
      // The spec addresses ranks of the program that just ran: drop the
      // dead rank and shift the survivors down to the next program's space.
      spec = fault::remap_without(spec, virtual_dead);
      continue;
    }
    if (!res.failed_ranks.empty()) {
      res.status = RunStatus::kRecovered;
      res.recovery_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               first_failure)
              .count());
      if (obs::enabled()) {
        obs::MetricsRegistry::global()
            .histogram("logpc_fault_recovery_latency_ns",
                       obs::default_latency_buckets_ns(),
                       "first rank failure to degraded completion")
            .observe(static_cast<double>(res.recovery_ns));
      }
    }
    return res;
  }
}

exec::ExecReport Communicator::run_reduce_operands(
    Count n, const std::vector<std::vector<exec::Bytes>>& operands,
    const exec::Combiner& op, exec::Engine* engine) const {
  const obs::Span span("comm.run_reduce_operands", "comm");
  const exec::Program program = exec::compile_summation(reduce_operands(n));
  return engine_or_shared(engine).run(program, operands, op);
}

}  // namespace logpc::api
