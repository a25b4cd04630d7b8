#include "api/communicator.hpp"

#include <chrono>
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

namespace {

/// Scatter: item d leaves the root in destination order, serialized by g
/// (any order is optimal — every message crosses the root's send port).
Schedule build_scatter(const Params& params, ProcId root) {
  Schedule s(params, params.P);
  for (ProcId d = 0; d < params.P; ++d) s.add_initial(d, root, 0);
  Time start = 0;
  for (ProcId d = 0; d < params.P; ++d) {
    if (d == root) continue;
    s.add_send(start, root, d, d);
    start += params.g;
  }
  s.sort();
  return s;
}

/// Gather: the scatter pattern reversed — senders staggered so arrivals at
/// the root land exactly g apart.
Schedule build_gather(const Params& params, ProcId root) {
  Schedule s(params, params.P);
  for (ProcId p = 0; p < params.P; ++p) s.add_initial(p, p, 0);
  Time start = 0;
  for (ProcId p = 0; p < params.P; ++p) {
    if (p == root) continue;
    s.add_send(start, p, root, p);
    start += params.g;
  }
  s.sort();
  return s;
}

}  // namespace

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
  // Broadcast plans are implicit-only; plan_schedule materializes on demand.
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
  const Params postal = postal_projection();
  return bcast::kitem_buffered(postal.P, postal.L, k);
}

Schedule Communicator::scatter(ProcId root) const {
  const obs::Span span("comm.scatter", "comm");
  if (root < 0 || root >= params_.P) {
    throw std::invalid_argument("Communicator::scatter: bad root");
  }
  return build_scatter(params_, root);
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
  return build_gather(params_, root);
}

sum::SummationPlan Communicator::reduce_operands(Count n) const {
  const obs::Span span("comm.reduce_operands", "comm");
  return *planner_->plan(runtime::Problem::kSummation, params_, n)->summation;
}

Time Communicator::reduce_operands_time(Count n) const {
  return planner_->plan(runtime::Problem::kSummation, params_, n)->completion;
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
  return bcast::all_to_all_personalized(params_);
}

bcast::CombiningSchedule Communicator::allreduce() const {
  const obs::Span span("comm.allreduce", "comm");
  return bcast::combining_broadcast(allreduce_time(), postal_projection().L);
}

Time Communicator::allreduce_time() const {
  const Params postal = postal_projection();
  return bcast::combining_time_for(postal.P, postal.L);
}

namespace {

/// Rank deaths run_broadcast_ft survives; the next one ends it kFailed.
constexpr std::size_t kMaxRecoveries = 2;

exec::Engine& engine_or_shared(exec::Engine* engine) {
  return engine != nullptr ? *engine : exec::Engine::shared();
}

/// The telemetry label of each problem's compiled program.
const char* compile_label(runtime::Problem problem, std::int64_t k) {
  switch (problem) {
    case runtime::Problem::kBroadcast: return "bcast";
    case runtime::Problem::kKItemBroadcast: return "bcast-seg";
    case runtime::Problem::kReduce: return "reduce";
    case runtime::Problem::kAllToAll: return k == 1 ? "allgather" : "alltoall";
    case runtime::Problem::kSummation: return "summation";
  }
  throw std::invalid_argument("Communicator::compile: unknown problem");
}
}  // namespace

exec::Program Communicator::compile(runtime::Problem problem, std::int64_t k,
                                    ProcId root) const {
  const obs::Span span("comm.compile", "comm");
  const char* label = compile_label(problem, k);
  // Every problem lowers its cached plan; a summation plan carries its
  // sum::SummationPlan, so nothing is planned again.  The segmented
  // broadcast (Section 3 k-item schedule) is keyed at root 0, its shape
  // being root-invariant: other roots swap ranks 0 and root in the program.
  exec::Program program =
      exec::compile_plan(*planner_->plan(problem, params_, k, root), label);
  if (problem == runtime::Problem::kKItemBroadcast && root != 0) {
    program = exec::relabel_swapped(std::move(program), 0, root);
  }
  return program;
}

exec::ExecReport Communicator::run_broadcast(std::span<const std::byte> payload,
                                             ProcId root,
                                             exec::Engine* engine) const {
  const obs::Span span("comm.run_broadcast", "comm");
  return engine_or_shared(engine).run(
      compile(runtime::Problem::kBroadcast, 1, root), exec::Payload{payload});
}

exec::ExecReport Communicator::run_reduce(const std::vector<exec::Bytes>& values,
                                          const exec::Combiner& op,
                                          ProcId root,
                                          exec::Engine* engine) const {
  const obs::Span span("comm.run_reduce", "comm");
  const exec::Program program = compile(runtime::Problem::kReduce, 1, root);
  return engine_or_shared(engine).run(program, exec::FoldValues{values, op});
}

exec::ExecReport Communicator::run_allgather(
    const std::vector<exec::Bytes>& contributions, exec::Engine* engine) const {
  const obs::Span span("comm.run_allgather", "comm");
  const exec::Program program = compile(runtime::Problem::kAllToAll, 1, 0);
  return engine_or_shared(engine).run(program, exec::Items{contributions});
}

FtRunResult Communicator::run_broadcast_ft(std::span<const std::byte> payload,
                                           ProcId root,
                                           const FtRunOptions& options) const {
  const obs::Span span("comm.run_broadcast_ft", "comm");
  if (root < 0 || root >= params_.P) {
    throw std::invalid_argument("Communicator::run_broadcast_ft: bad root");
  }
  exec::Engine engine;
  // An injector over an empty spec injects nothing: the run steps exactly
  // as a fault-free one.
  fault::FaultSpec spec = options.faults.value_or(fault::FaultSpec{});

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
    const fault::Injector injector(spec);
    try {
      res.report = engine.run(program, exec::Payload{payload}, &injector);
    } catch (const exec::RankFailure& failure) {
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
      if (res.failed_ranks.size() > kMaxRecoveries) {
        res.status = RunStatus::kFailed;
        res.error = "recovery budget exhausted (" +
                    std::to_string(kMaxRecoveries) +
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
  const exec::Program program = compile(runtime::Problem::kSummation, n);
  return engine_or_shared(engine).run(program, exec::Operands{operands, op});
}

}  // namespace logpc::api
