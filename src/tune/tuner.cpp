#include "tune/tuner.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "exec/engine.hpp"
#include "exec/program.hpp"

namespace logpc::tune {

namespace {

using runtime::PlanKey;
using runtime::Problem;

/// The segmented-pipeline candidate always splits, into
/// clamp(ceil(bytes / kSegmentBytes), kMinSegments, kMaxSegments) segments.
constexpr std::size_t kSegmentBytes = 64 * 1024;
constexpr std::int64_t kMinSegments = 2;
constexpr std::int64_t kMaxSegments = 16;

/// Cross-cluster link class of the hierarchical candidate (P ignored).
constexpr Params kCrossLinks{2, 16, 2, 8};

/// One compiled candidate ready to time.
struct Candidate {
  std::string name;
  Problem problem = Problem::kBroadcast;
  std::int32_t segments = 1;
  std::int32_t clusters = 0;
  Time cross_L = 0, cross_o = 0, cross_g = 0;
  exec::Program program;
  std::vector<double> samples_ns;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<Candidate> build_candidates(const TunerOptions& opts,
                                        runtime::Planner& planner,
                                        const Params& machine,
                                        std::size_t bytes) {
  std::vector<Candidate> out;
  const auto add = [&out](std::string name, Problem problem,
                          exec::Program program, std::int32_t segments = 1) {
    Candidate c;
    c.name = std::move(name);
    c.problem = problem;
    c.segments = segments;
    c.program = std::move(program);
    out.push_back(std::move(c));
  };

  add("optimal", Problem::kBroadcast,
      exec::compile_plan(*planner.plan(PlanKey::broadcast(machine)),
                         "bcast"));
  for (const Problem p : {Problem::kBinomialBroadcast,
                          Problem::kBinaryBroadcast, Problem::kChainBroadcast}) {
    add(std::string(runtime::problem_name(p)), p,
        exec::compile_plan(*planner.plan(runtime::PlanKey::make(p, machine)),
                           "bcast"));
  }
  if (opts.clusters > 1 && opts.clusters < machine.P) {
    const HierParams topo =
        HierParams::uniform(machine.P, opts.clusters, machine, kCrossLinks);
    Candidate c;
    c.name = "hierarchical(c=" + std::to_string(opts.clusters) + ")";
    c.problem = Problem::kHierarchicalBroadcast;
    c.clusters = opts.clusters;
    c.cross_L = kCrossLinks.L;
    c.cross_o = kCrossLinks.o;
    c.cross_g = kCrossLinks.g;
    c.program = exec::compile_plan(*planner.plan(PlanKey::hierarchical(topo)),
                                   "bcast-hier");
    out.push_back(std::move(c));
  }
  if (bytes > 0) {
    const auto raw =
        static_cast<std::int64_t>((bytes + kSegmentBytes - 1) / kSegmentBytes);
    const auto k = static_cast<std::int32_t>(
        std::clamp<std::int64_t>(raw, kMinSegments, kMaxSegments));
    add("segmented(k=" + std::to_string(k) + ")", Problem::kKItemBroadcast,
        exec::compile_plan(
            *planner.plan(PlanKey::segmented_broadcast(machine, k)),
            "bcast-seg"),
        k);
  }
  return out;
}

}  // namespace

TuneReport auto_tune(const TunerOptions& opts) {
  if (opts.Ps.empty() || opts.sizes.empty()) {
    throw std::invalid_argument("auto_tune: empty grid");
  }
  for (const int P : opts.Ps) {
    if (P < 2) throw std::invalid_argument("auto_tune: every P must be >= 2");
  }
  if (opts.trials < 1) {
    throw std::invalid_argument("auto_tune: trials must be >= 1");
  }

  const std::shared_ptr<runtime::Planner> planner =
      opts.planner ? opts.planner : runtime::Planner::shared_default();
  exec::Engine engine;
  engine.prewarm(*std::max_element(opts.Ps.begin(), opts.Ps.end()));

  TuneReport report;
  for (const int P : opts.Ps) {
    Params machine = kTuningMachine;
    machine.P = P;
    machine.require_valid();
    for (const std::size_t bytes : opts.sizes) {
      std::vector<Candidate> candidates =
          build_candidates(opts, *planner, machine, bytes);

      // Deterministic payload; per-trial reuse is fine (byte values never
      // influence the move path's timing).
      std::vector<std::byte> payload(std::max<std::size_t>(bytes, 1));
      for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::byte>((i * 131 + 17) & 0xff);
      }

      // Interleave trials round-robin so drift (thermal, scheduler) hits
      // every candidate alike instead of whichever ran last.
      for (int round = 0; round < opts.warmup + opts.trials; ++round) {
        const bool timed = round >= opts.warmup;
        for (Candidate& c : candidates) {
          const exec::ExecReport r =
              engine.run(c.program, exec::Payload{payload});
          if (timed) {
            c.samples_ns.push_back(static_cast<double>(r.wall_ns));
          }
        }
      }

      SegmentResult seg;
      seg.collective = Collective::kBroadcast;
      seg.P = P;
      seg.bytes = bytes;
      seg.size_class = size_class_of(bytes);
      for (Candidate& c : candidates) {
        CandidateTiming t;
        t.name = c.name;
        t.problem = c.problem;
        t.segments = c.segments;
        t.clusters = c.clusters;
        t.median_ns = median(c.samples_ns);
        seg.timings.push_back(std::move(t));
      }
      std::stable_sort(seg.timings.begin(), seg.timings.end(),
                       [](const CandidateTiming& a, const CandidateTiming& b) {
                         return a.median_ns < b.median_ns;
                       });

      const CandidateTiming& best = seg.timings.front();
      Decision d;
      d.problem = best.problem;
      d.segments = best.segments;
      d.win_ns = best.median_ns;
      if (seg.timings.size() > 1) d.runner_up_ns = seg.timings[1].median_ns;
      if (best.problem == Problem::kHierarchicalBroadcast) {
        d.clusters = best.clusters;
        d.cross_L = kCrossLinks.L;
        d.cross_o = kCrossLinks.o;
        d.cross_g = kCrossLinks.g;
      }
      seg.winner = d;
      report.table.set(
          DecisionKey{Collective::kBroadcast, P, seg.size_class}, d);
      report.segments.push_back(std::move(seg));
    }
  }
  return report;
}

}  // namespace logpc::tune
