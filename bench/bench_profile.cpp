#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/critical_path.hpp"
#include "svc/service.hpp"

/// bench_profile: what does always-on run profiling cost the serving path?
///
/// Two identical single-pool services run the same warm broadcast workload,
/// one with Options::profile on (obs::analyze + flight-recorder record per
/// request, the default) and one with it off.  Requests are timed
/// end-to-end (submit -> future resolution), batches interleave — the side
/// that runs first alternates by round — so load noise hits both sides
/// alike, and medians pooled across all rounds squeeze scheduler spikes
/// out.  One request is in flight at a time on an otherwise idle service,
/// so the lone request runs on the submitting thread, with no fusion
/// window and no thread hand-off: the overhead is measured on the
/// cheapest path, where no other cost hides it.  The
/// analyzer is also timed standalone for the report.
///
/// This bench *gates*: the run exits non-zero when the profiled service's
/// per-request latency exceeds the unprofiled one by more than
/// LOGPC_PROFILE_OVERHEAD_MAX (default 5%) — the acceptance bound for
/// shipping the profiler enabled by default.  BENCH_profile.json records
/// the measured overhead either way.

namespace logpc::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kWarmup = 64;
constexpr int kBatch = 160;
constexpr int kRounds = 5;

Params machine() { return Params{8, 4, 1, 2}; }

exec::Bytes payload() {
  // 16 KiB: enough payload that the request does real memcpy work, while
  // the analyzer's input (one event per send/recv) stays the same size.
  return exec::Bytes(16 * 1024, std::byte{0x5a});
}

svc::Request bcast_request() {
  svc::Request r;
  r.op = svc::OpKind::kBroadcast;
  r.payload = payload();
  return r;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

/// Runs `n` requests, appending each per-request latency (ns) to `out`.
void run_batch(svc::CollectiveService& svc, svc::TenantId tenant, int n,
               std::vector<double>* out = nullptr) {
  for (int i = 0; i < n; ++i) {
    svc::SubmitResult sub = svc.submit(tenant, bcast_request());
    if (!sub.accepted()) {
      std::cerr << "bench_profile: submit rejected\n";
      std::exit(2);
    }
    const svc::Response r = sub.response.get();
    if (r.status != svc::Status::kOk) {
      std::cerr << "bench_profile: run failed: " << r.error << "\n";
      std::exit(2);
    }
    if (out != nullptr) out->push_back(static_cast<double>(r.total_ns));
  }
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atof(v) : fallback;
}

int run() {
  svc::CollectiveService::Options base;
  base.pools = 1;

  svc::CollectiveService::Options off = base;
  off.profile = false;
  svc::CollectiveService svc_off(machine(), off);
  const svc::TenantId t_off =
      svc_off.register_tenant({.name = "bench-off", .queue_capacity = 4096});

  svc::CollectiveService::Options on = base;  // profile defaults to true
  svc::CollectiveService svc_on(machine(), on);
  const svc::TenantId t_on =
      svc_on.register_tenant({.name = "bench-on", .queue_capacity = 4096});

  // Warm both paths: resident threads, recycled run contexts, compiled
  // programs — the steady state a daemon actually serves from.
  run_batch(svc_off, t_off, kWarmup);
  run_batch(svc_on, t_on, kWarmup);

  // Interleaved rounds, latencies pooled across rounds: scheduler spikes hit
  // both sides alike, and the pooled median is a far lower-variance estimate
  // of each side's typical cost than any single round's statistic.
  std::vector<double> off_all, on_all;
  off_all.reserve(static_cast<std::size_t>(kBatch) * kRounds);
  on_all.reserve(static_cast<std::size_t>(kBatch) * kRounds);
  Table table({"round", "profile off (ns)", "profile on (ns)", "ratio"});
  for (int round = 0; round < kRounds; ++round) {
    std::vector<double> off_round, on_round;
    // Alternate which side runs first, so drift within a round (frequency
    // scaling, a neighbour's load) does not always land on the same side.
    if (round % 2 == 0) {
      run_batch(svc_off, t_off, kBatch, &off_round);
      run_batch(svc_on, t_on, kBatch, &on_round);
    } else {
      run_batch(svc_on, t_on, kBatch, &on_round);
      run_batch(svc_off, t_off, kBatch, &off_round);
    }
    const double o = median(off_round);
    const double p = median(on_round);
    table.row(round, o, p, p / o);
    off_all.insert(off_all.end(), off_round.begin(), off_round.end());
    on_all.insert(on_all.end(), on_round.begin(), on_round.end());
  }
  const double off_ns = median(std::move(off_all));
  const double on_ns = median(std::move(on_all));
  const double overhead = on_ns / off_ns - 1.0;

  // The analyzer alone, on a representative warm-path report.
  svc::SubmitResult sub = svc_on.submit(t_on, bcast_request());
  const svc::Response sample = sub.response.get();
  constexpr int kAnalyzeIters = 512;
  const auto t0 = Clock::now();
  for (int i = 0; i < kAnalyzeIters; ++i) {
    const obs::RunProfile p = obs::analyze(sample.report);
    ::benchmark::DoNotOptimize(p.critical_path_ns);
  }
  const double analyze_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
      kAnalyzeIters;

  section("profiling overhead on the warm service path (P=8 broadcast)");
  table.print();
  std::cout << "\npooled median: off=" << off_ns << "ns on=" << on_ns
            << "ns overhead=" << overhead * 100 << "%\n"
            << "obs::analyze alone: " << analyze_ns << "ns per run\n";

  JsonReport report("profile");
  report.entry("warm_path_overhead",
               {{"P", "8"}, {"op", "broadcast"}, {"payload", "16384"}},
               {{"profile_off_ns", off_ns},
                {"profile_on_ns", on_ns},
                {"overhead_frac", overhead}});
  report.entry("analyze_standalone", {{"P", "8"}, {"op", "broadcast"}},
               {{"analyze_ns", analyze_ns}});
  const std::string path = report.write();
  std::cout << (path.empty() ? "FAILED to write bench json"
                             : "bench json: " + path)
            << "\n";

  const double budget = env_double("LOGPC_PROFILE_OVERHEAD_MAX", 0.05);
  if (overhead > budget) {
    std::cerr << "bench_profile: FAIL — profiling overhead "
              << overhead * 100 << "% exceeds the " << budget * 100
              << "% budget\n";
    return 1;
  }
  std::cout << "bench_profile: OK — overhead " << overhead * 100
            << "% within the " << budget * 100 << "% budget\n";
  return 0;
}

}  // namespace
}  // namespace logpc::bench

int main() { return logpc::bench::run(); }
