/// The collective-service throughput bench, mpptest-style: sustained
/// requests through the daemon rather than one timed collective.  Two
/// modes on the same machine (P = 8) and workload (single-item broadcast,
/// 64-byte payload):
///
///  * cold  — the pre-service baseline: every request constructs a fresh
///    exec::Engine (its run context built per run) and recompiles its
///    program, the way a one-shot Communicator caller would.
///  * warm  — the daemon path: 8 equal-weight tenants, one submitter
///    thread each, submit into a CollectiveService with 2 persistent
///    engines and a service-lifetime program cache, each keeping a bounded
///    window in flight.  With more submitters than engines, requests queue
///    behind lent engines and the combining submitters drain them.
///    Measured once per serving class: interactive (never fused) and batch
///    (the combiner fuses the queued same-shape backlog).
///
/// Reported per mode and class: sustained collectives/sec and the
/// p50/p99 of the per-request end-to-end latency, the fused completions;
/// plus the warm/cold throughput ratio.  The bench exits 1, after writing
/// its json, when either class reads below 2x warm/cold, or when the
/// batch class fused nothing.  Everything lands in BENCH_throughput.json
/// via the global JsonReport (bench_loadgen merges its own entries into
/// the same file).

#include "bench_util.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/communicator.hpp"
#include "svc/service.hpp"

namespace {

using namespace logpc;
using logpc::bench::Table;

constexpr int kP = 8;
constexpr std::size_t kPayload = 64;
constexpr int kTenants = 8;
constexpr int kColdRequests = 48;
/// Enough per submitter thread that the threads' runs overlap: with a few
/// hundred in all, each thread is done before the next has started, and
/// nothing ever queues behind a lent engine.
constexpr int kWarmRequests = 4096;
constexpr std::size_t kWindow = 16;  ///< in-flight bound per tenant
/// Warm/cold throughput every serving class must reach (exit 1 below).
constexpr double kFloor = 2.0;

Params machine() { return Params{kP, 4, 1, 2}; }

exec::Bytes payload_of(std::size_t size) {
  exec::Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::byte>(i & 0xFF);
  }
  return b;
}

struct Sustained {
  double rps = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  int requests = 0;
  std::size_t fused = 0;  ///< completions that rode a >= 2 batch
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1));
  return v[idx];
}

Sustained summarize(const std::vector<double>& latencies_ns,
                    std::uint64_t wall_ns) {
  Sustained s;
  s.requests = static_cast<int>(latencies_ns.size());
  s.rps = wall_ns > 0 ? 1e9 * static_cast<double>(s.requests) /
                            static_cast<double>(wall_ns)
                      : 0;
  s.p50_ns = percentile(latencies_ns, 0.50);
  s.p99_ns = percentile(latencies_ns, 0.99);
  return s;
}

/// The pre-service baseline: engine built and torn down per request.
Sustained run_cold() {
  const api::Communicator comm(machine());
  const exec::Bytes payload = payload_of(kPayload);
  std::vector<double> latencies;
  latencies.reserve(kColdRequests);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kColdRequests; ++i) {
    const auto r0 = std::chrono::steady_clock::now();
    exec::Engine fresh;  // a cold run context per request
    const exec::ExecReport report = comm.run_broadcast(
        std::span<const std::byte>(payload.data(), payload.size()), 0,
        &fresh);
    const auto r1 = std::chrono::steady_clock::now();
    if (report.warm_buffers) std::cout << "cold baseline ran warm?!\n";
    latencies.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(r1 - r0)
            .count()));
  }
  const auto t1 = std::chrono::steady_clock::now();
  return summarize(
      latencies,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
}

/// The daemon path: kTenants submitter threads, one tenant each, against
/// 2 engines, each thread keeping up to kWindow requests in flight.  `qos`
/// selects the serving class — and with it the high-throughput path:
/// kInteractive runs every request unfused, kBatch lets a combiner
/// coalesce the same-shape requests queued behind lent engines.
Sustained run_warm(svc::QoS qos) {
  svc::CollectiveService::Options opts;
  opts.pools = 2;
  svc::CollectiveService service(machine(), opts);
  std::vector<svc::TenantId> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.push_back(service.register_tenant(
        {.name = std::string("bench-") + svc::qos_name(qos) + "-" +
                 std::to_string(t),
         .queue_capacity = 2 * kWindow}));
  }
  const exec::Bytes payload = payload_of(kPayload);

  struct PerThread {
    std::vector<double> latencies;
    std::size_t warm = 0;
    std::size_t fused = 0;
  };
  std::vector<PerThread> per(kTenants);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      PerThread& mine = per[static_cast<std::size_t>(t)];
      std::deque<std::future<svc::Response>> inflight;
      const auto settle = [&] {
        const svc::Response r = inflight.front().get();
        inflight.pop_front();
        if (r.status != svc::Status::kOk) return;
        mine.latencies.push_back(static_cast<double>(r.total_ns));
        mine.warm += r.report.warm_pool ? 1u : 0u;
        mine.fused += r.fused > 1 ? 1u : 0u;
      };
      for (int i = 0; i < kWarmRequests / kTenants; ++i) {
        svc::Request req;
        req.op = svc::OpKind::kBroadcast;
        req.qos = qos;
        req.payload = payload;
        svc::SubmitResult sub = service.submit(
            tenants[static_cast<std::size_t>(t)], std::move(req));
        if (sub.accepted()) inflight.push_back(std::move(sub.response));
        while (inflight.size() > kWindow) settle();
      }
      while (!inflight.empty()) settle();
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  const auto t1 = std::chrono::steady_clock::now();
  std::vector<double> latencies;
  std::size_t warm_runs = 0;
  std::size_t fused_runs = 0;
  for (const PerThread& p : per) {
    latencies.insert(latencies.end(), p.latencies.begin(), p.latencies.end());
    warm_runs += p.warm;
    fused_runs += p.fused;
  }
  std::cout << "warm[" << svc::qos_name(qos) << "] pool hit rate: "
            << warm_runs << "/" << latencies.size() << ", fused completions: "
            << fused_runs << "\n";
  Sustained s = summarize(
      latencies,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
  s.fused = fused_runs;
  return s;
}

void add_entry(const std::string& mode, const std::string& qos,
               const Sustained& s, double speedup) {
  logpc::bench::global_report("throughput")
      .entry("sustained",
             {{"mode", mode},
              {"qos", qos},
              {"P", std::to_string(kP)},
              {"tenants", std::to_string(mode == "cold" ? 1 : kTenants)},
              {"payload", std::to_string(kPayload)}},
             {{"requests", static_cast<double>(s.requests)},
              {"collectives_per_sec", s.rps},
              {"p50_ns", s.p50_ns},
              {"p99_ns", s.p99_ns},
              {"fused", static_cast<double>(s.fused)},
              {"speedup_vs_cold", speedup}});
}

void report() {
  std::cout << "Collective-service sustained throughput, P = " << kP
            << ", broadcast " << kPayload << " B\n"
            << "cold = fresh engine per request; warm = daemon with "
            << kTenants
            << " submitter threads on 2 engines, per serving class\n"
            << "(interactive = unfused class, batch = fusible class)\n\n";
  const Sustained cold = run_cold();
  const Sustained warm_interactive = run_warm(svc::QoS::kInteractive);
  const Sustained warm_batch = run_warm(svc::QoS::kBatch);
  const auto speedup = [&](const Sustained& s) {
    return cold.rps > 0 ? s.rps / cold.rps : 0;
  };

  Table t({"mode", "qos", "requests", "collectives/s", "p50 us", "p99 us"});
  t.row("cold", "-", cold.requests, static_cast<std::int64_t>(cold.rps),
        cold.p50_ns / 1000.0, cold.p99_ns / 1000.0);
  t.row("warm", "interactive", warm_interactive.requests,
        static_cast<std::int64_t>(warm_interactive.rps),
        warm_interactive.p50_ns / 1000.0, warm_interactive.p99_ns / 1000.0);
  t.row("warm", "batch", warm_batch.requests,
        static_cast<std::int64_t>(warm_batch.rps),
        warm_batch.p50_ns / 1000.0, warm_batch.p99_ns / 1000.0);
  t.print();
  std::cout << "\nwarm/cold throughput: interactive "
            << speedup(warm_interactive) << "x, batch " << speedup(warm_batch)
            << "x (acceptance floor: " << kFloor << "x)\n\n";
  if (speedup(warm_interactive) < kFloor || speedup(warm_batch) < kFloor) {
    std::cout << "bench_service: warm/cold >= " << kFloor
              << "x floor FAILED\n\n";
    bench::gate_failed() = true;
  }
  std::cout << "batch fused completions: " << warm_batch.fused << "/"
            << warm_batch.requests << " (gate: > 0)\n\n";
  if (warm_batch.fused == 0) {
    std::cout << "bench_service: the batch class fused nothing FAILED\n\n";
    bench::gate_failed() = true;
  }

  add_entry("cold", "-", cold, 1.0);
  add_entry("warm", "interactive", warm_interactive,
            speedup(warm_interactive));
  add_entry("warm", "batch", warm_batch, speedup(warm_batch));
}

/// Microbenchmark: the per-request service overhead in isolation — submit
/// plus future-resolve of an already-warm broadcast, single tenant.
void BM_ServiceRoundTrip(benchmark::State& state) {
  svc::CollectiveService::Options opts;
  opts.pools = 1;
  svc::CollectiveService service(machine(), opts);
  const svc::TenantId t = service.register_tenant({.name = "bm"});
  const exec::Bytes payload = payload_of(kPayload);
  for (auto _ : state) {
    svc::Request req;
    req.op = svc::OpKind::kBroadcast;
    req.payload = payload;
    svc::SubmitResult sub = service.submit(t, std::move(req));
    if (!sub.accepted()) {
      state.SkipWithError("submit rejected");
      break;
    }
    benchmark::DoNotOptimize(sub.response.get().total_ns);
  }
}
BENCHMARK(BM_ServiceRoundTrip)->Unit(benchmark::kMicrosecond);

}  // namespace

LOGPC_BENCH_MAIN(report)
