#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runtime/planner.hpp"
#include "tune/tuner.hpp"

/// bench_tuning: does measured per-segment selection beat any one fixed
/// schedule, and is the tuned planner fast path free when warm?
///
/// Runs the auto-tuner's real-engine grid (tune::auto_tune) over
/// (P, payload-size) segments, then scores two acceptance gates:
///
///  1. Selection quality.  A "fixed schedule" is one candidate family
///     (optimal tree, a baseline tree, the always-split segmented
///     pipeline, the hierarchical schedule) used for *every* segment; the
///     best fixed family is the one with the lowest total across the
///     grid.  The tuned table picks per segment, so it must beat even
///     that best fixed family by >= LOGPC_TUNING_MARGIN (default 10%) on
///     >= LOGPC_TUNING_MIN_WINS segments (default 2) — otherwise the
///     whole tuning subsystem isn't paying for itself and the run exits
///     non-zero.
///
///  2. Warm-path overhead.  With the decision table installed,
///     Planner::plan_tuned must stay within LOGPC_TUNED_PLAN_OVERHEAD_MAX
///     (default 5%) of a plain warm Planner::plan cache hit.  Both sides
///     are timed in interleaved rounds (bench_profile's de-drifting) and
///     the pooled medians compared — a same-machine ratio, stable on
///     loaded runners.
///
/// BENCH_tuning.json records every segment's per-family medians and the
/// winner, so scripts/perf_diff.py --tuning can flag winner flips against
/// the committed baseline (a flip is a warning, not a failure: two
/// families within noise of each other may legitimately trade places).
/// The tuned table itself is saved to $LOGPC_BENCH_DIR/decision_table.snap
/// for the CI artifact trail.

namespace logpc::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPlanBatch = 8192;
constexpr int kPlanRounds = 9;

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atof(v) : fallback;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// "segmented(k=4)" -> "segmented"; "binomial-broadcast" -> "binomial";
/// the family a candidate belongs to when used as a fixed policy.
std::string family_of(const std::string& candidate_name) {
  std::string f = candidate_name.substr(0, candidate_name.find('('));
  const std::size_t dash = f.find('-');
  if (dash != std::string::npos) f = f.substr(0, dash);
  return f;
}

int run() {
  tune::TunerOptions opts;
  opts.Ps = {4, 8, 16};
  // The two regimes measured winners split on: at 4 KiB the per-hop
  // wakeup cost dominates, so shallow trees win and deep/split schedules
  // pay their depth; at 4 MiB per-hop memcpy bandwidth dominates, where
  // fan-out trees contend for memory and send-once shapes (chain,
  // two-level) win.  The LogP cycle model prices neither effect — which
  // is the argument for measuring.
  opts.sizes = {4096, 4u << 20};
  // clusters=4 exists only for P >= 8, so the hierarchical candidate is
  // tuned where valid but is not a grid-wide fixed policy.
  opts.clusters = 4;
  opts.trials = 7;
  opts.warmup = 2;
  opts.planner = std::make_shared<runtime::Planner>();

  section("auto-tuning grid (real engine, interleaved trials)");
  const tune::TuneReport report = tune::auto_tune(opts);

  // Per-segment table plus per-family medians for the fixed-policy score.
  // family -> per-segment median (indexed like report.segments).
  std::map<std::string, std::vector<double>> family_ns;
  Table grid({"P", "bytes", "class", "winner", "tuned (ns)",
              "runner-up (ns)"});
  JsonReport json("tuning");
  for (std::size_t s = 0; s < report.segments.size(); ++s) {
    const tune::SegmentResult& seg = report.segments[s];
    grid.row(seg.P, seg.bytes, seg.size_class, seg.timings.front().name,
             seg.winner.win_ns, seg.winner.runner_up_ns);
    std::vector<std::pair<std::string, double>> values{
        {"tuned_ns", seg.winner.win_ns},
        {"runner_up_ns", seg.winner.runner_up_ns}};
    for (const tune::CandidateTiming& t : seg.timings) {
      values.emplace_back(family_of(t.name) + "_ns", t.median_ns);
      family_ns[family_of(t.name)].resize(report.segments.size(), 0);
      family_ns[family_of(t.name)][s] = t.median_ns;
    }
    json.entry("segment",
               {{"P", std::to_string(seg.P)},
                {"bytes", std::to_string(seg.bytes)},
                {"size_class", std::to_string(seg.size_class)},
                {"winner", seg.timings.front().name}},
               values);
  }
  grid.print();

  // Gate 1: tuned selection vs the best single fixed family.  Only
  // families measured on every segment qualify as a fixed policy.
  std::string best_fixed;
  double best_fixed_total = 0;
  for (const auto& [family, ns] : family_ns) {
    if (std::count(ns.begin(), ns.end(), 0.0) > 0) continue;
    double total = 0;
    for (const double v : ns) total += v;
    if (best_fixed.empty() || total < best_fixed_total) {
      best_fixed = family;
      best_fixed_total = total;
    }
  }
  const double margin = env_double("LOGPC_TUNING_MARGIN", 0.10);
  const int min_wins =
      static_cast<int>(env_double("LOGPC_TUNING_MIN_WINS", 2));
  double tuned_total = 0;
  int wins = 0;
  Table vs({"P", "bytes", "tuned (ns)", best_fixed + " (ns)", "gain"});
  for (std::size_t s = 0; s < report.segments.size(); ++s) {
    const tune::SegmentResult& seg = report.segments[s];
    const double tuned = seg.winner.win_ns;
    const double fixed = family_ns[best_fixed][s];
    tuned_total += tuned;
    const double gain = 1.0 - tuned / fixed;
    if (tuned <= fixed * (1.0 - margin)) ++wins;
    vs.row(seg.P, seg.bytes, tuned, fixed,
           std::to_string(gain * 100) + "%");
  }
  section("tuned selection vs best fixed schedule (" + best_fixed + ")");
  vs.print();
  std::cout << "\ntotal: tuned=" << tuned_total
            << "ns best-fixed=" << best_fixed_total << "ns; " << wins
            << " segment(s) tuned >= " << margin * 100 << "% faster\n";
  json.entry("fixed_vs_tuned", {{"best_fixed", best_fixed}},
             {{"tuned_total_ns", tuned_total},
              {"best_fixed_total_ns", best_fixed_total},
              {"wins_ge_margin", static_cast<double>(wins)},
              {"margin", margin}});

  // Gate 2: the warm tuned fast path vs a plain warm cache hit.
  runtime::Planner& planner = *opts.planner;
  planner.set_decision_table(
      std::make_shared<const tune::DecisionTable>(report.table));
  Params machine = tune::kTuningMachine;
  machine.P = opts.Ps.back();
  const std::size_t probe_bytes = opts.sizes.back();
  const runtime::PlanKey plain_key = runtime::PlanKey::broadcast(machine);
  (void)planner.plan(plain_key);  // warm both paths' cache entries
  (void)planner.plan_tuned(tune::Collective::kBroadcast, machine,
                           probe_bytes);

  std::vector<double> plain_ns, tuned_ns;
  for (int round = 0; round < kPlanRounds; ++round) {
    auto t0 = Clock::now();
    for (int i = 0; i < kPlanBatch; ++i) {
      ::benchmark::DoNotOptimize(planner.plan(plain_key));
    }
    auto t1 = Clock::now();
    for (int i = 0; i < kPlanBatch; ++i) {
      ::benchmark::DoNotOptimize(planner.plan_tuned(
          tune::Collective::kBroadcast, machine, probe_bytes));
    }
    auto t2 = Clock::now();
    plain_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        kPlanBatch);
    tuned_ns.push_back(
        std::chrono::duration<double, std::nano>(t2 - t1).count() /
        kPlanBatch);
  }
  const double plain = median(std::move(plain_ns));
  const double tuned = median(std::move(tuned_ns));
  const double overhead = tuned / plain - 1.0;
  section("warm plan_tuned overhead");
  std::cout << "plan=" << plain << "ns plan_tuned=" << tuned
            << "ns overhead=" << overhead * 100 << "%\n";
  json.entry("warm_plan_overhead", {{"P", std::to_string(machine.P)}},
             {{"plan_ns", plain},
              {"plan_tuned_ns", tuned},
              {"overhead_frac", overhead}});

  const std::string path = json.write();
  std::cout << (path.empty() ? "FAILED to write bench json"
                             : "bench json: " + path)
            << "\n";

  // Persist the tuned table next to the json: the CI artifact a deploy
  // would install via Planner::set_decision_table at startup.
  const char* dir = std::getenv("LOGPC_BENCH_DIR");
  const std::string snap =
      (dir && *dir ? std::string(dir) + "/" : std::string()) +
      "decision_table.snap";
  report.table.save(snap);
  std::cout << "decision table snapshot: " << snap << " ("
            << report.table.size() << " entries)\n";

  int rc = 0;
  if (wins < min_wins) {
    std::cerr << "bench_tuning: FAIL — tuned selection beat the best fixed "
              << "schedule (" << best_fixed << ") by >= " << margin * 100
              << "% on only " << wins << " segment(s); need >= " << min_wins
              << "\n";
    rc = 1;
  }
  const double budget = env_double("LOGPC_TUNED_PLAN_OVERHEAD_MAX", 0.05);
  if (overhead > budget) {
    std::cerr << "bench_tuning: FAIL — warm plan_tuned overhead "
              << overhead * 100 << "% exceeds the " << budget * 100
              << "% budget\n";
    rc = 1;
  }
  if (rc == 0) {
    std::cout << "bench_tuning: OK — " << wins
              << " tuned wins >= " << margin * 100 << "%, warm overhead "
              << overhead * 100 << "% within " << budget * 100 << "%\n";
  }
  return rc;
}

}  // namespace
}  // namespace logpc::bench

int main() { return logpc::bench::run(); }
