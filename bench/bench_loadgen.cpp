/// mpptest-style sustained-load driver for a live CollectiveService — the
/// measurement half of the high-throughput path.  Three phases, all
/// against real engine pools on one machine (P = 8):
///
///  1. fusion    — 8 concurrent same-shape submitters (64 B broadcast,
///     one request in flight each) on two engines, as batch-class traffic,
///     which fuses when it queues behind lent engines, and as
///     interactive-class traffic, which never fuses.
///     Reports sustained collectives/sec, p50/p99/p999, the fused-batch-
///     size distribution (from the logpc_svc_batch_size histogram), and
///     the fused/unfused ratio (ISSUE acceptance floor: 2x).
///  2. segmented — large broadcasts (256 KiB, 512 KiB) through the
///     Section 3 k-item segmented pipeline vs the bulk single-send
///     (segment_threshold = 0).  Acceptance: segmented beats bulk from
///     256 KiB up.
///  3. openloop  — a configurable op/size/QoS/tenant mix arriving at a
///     target rate (open loop: submission never waits for completion),
///     reporting per-class completion latencies.
///
/// Everything lands in BENCH_throughput.json; run under
/// LOGPC_BENCH_MERGE=1 to append to bench_service's entries instead of
/// replacing the file.
///
/// Custom main (LOGPC_BENCH_MAIN rejects non-benchmark flags):
///
///   bench_loadgen [--smoke] [--requests=N] [--seg-ops=N]
///                 [--arrivals=N] [--rate=RPS]
///
/// --smoke shrinks every phase for CI and *gates*: exit 1 unless fused
/// sustained throughput >= unfused (the committed floor — fusion must
/// never lose to the path it amortizes) and the fused phase fused at
/// least one batch (else both phases ran the same unfused path and the
/// ratio is a coin flip).  Phase 1 keeps 1,000 requests per submitter in
/// smoke mode: with fewer, the submitters' runs barely overlap and nothing
/// queues behind a lent engine.

#include "bench_util.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/service.hpp"

namespace {

using namespace logpc;
using logpc::bench::Table;

constexpr int kP = 8;
Params machine() { return Params{kP, 4, 1, 2}; }

struct Config {
  bool smoke = false;
  int requests_per_submitter = 400;  ///< phase 1, per submitter thread
  int submitters = 8;
  int seg_ops = 24;                  ///< phase 2, per payload/mode cell
  int arrivals = 2400;               ///< phase 3, total
  double rate = 3000;                ///< phase 3, target arrivals/sec
};

exec::Bytes payload_of(std::size_t size, unsigned seed = 0) {
  exec::Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::byte>((i * 31 + seed) & 0xFF);
  }
  return b;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// The service-wide batch-size histogram (count/sum/buckets), for
/// before/after deltas around a phase.
obs::MetricSnapshot batch_size_hist() {
  for (const obs::MetricSnapshot& s : obs::MetricsRegistry::global()
                                          .snapshot()) {
    if (s.name == "logpc_svc_batch_size" && s.labels.empty()) return s;
  }
  return {};
}

struct PhaseResult {
  double rps = 0;
  double p50_ns = 0, p99_ns = 0, p999_ns = 0;
  int completed = 0;
  double mean_batch = 0;      ///< requests per engine dispatch
  double fused_share = 0;     ///< completions that rode a >= 2 batch
  std::vector<std::pair<double, std::uint64_t>> batch_buckets;
};

/// Phase 1 worker pool: `submitters` threads, each its own tenant, one
/// same-shape 64 B broadcast in flight at a time: batch class when
/// `fused`, else interactive class, which the service never fuses.
PhaseResult run_fusion_phase(const Config& cfg, bool fused) {
  svc::CollectiveService::Options opts;
  opts.pools = 2;
  svc::CollectiveService service(machine(), opts);
  std::vector<svc::TenantId> tenants;
  for (int t = 0; t < cfg.submitters; ++t) {
    tenants.push_back(service.register_tenant(
        {.name = std::string("loadgen-") + (fused ? "f" : "u") + "-" +
                 std::to_string(t)}));
  }
  const exec::Bytes payload = payload_of(64);

  const obs::MetricSnapshot before = batch_size_hist();
  std::vector<std::vector<double>> lat(
      static_cast<std::size_t>(cfg.submitters));
  std::vector<std::uint64_t> fused_completions(
      static_cast<std::size_t>(cfg.submitters), 0);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.submitters; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < cfg.requests_per_submitter; ++i) {
        svc::Request req;
        req.op = svc::OpKind::kBroadcast;
        req.qos = fused ? svc::QoS::kBatch : svc::QoS::kInteractive;
        req.payload = payload;
        svc::SubmitResult sub =
            service.submit(tenants[static_cast<std::size_t>(t)],
                           std::move(req));
        if (!sub.accepted()) continue;
        const svc::Response r = sub.response.get();
        if (r.status != svc::Status::kOk) continue;
        lat[static_cast<std::size_t>(t)].push_back(
            static_cast<double>(r.total_ns));
        fused_completions[static_cast<std::size_t>(t)] +=
            r.fused > 1 ? 1u : 0u;
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  const auto wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  const obs::MetricSnapshot after = batch_size_hist();

  PhaseResult res;
  std::vector<double> all;
  std::uint64_t fused_total = 0;
  for (int t = 0; t < cfg.submitters; ++t) {
    all.insert(all.end(), lat[static_cast<std::size_t>(t)].begin(),
               lat[static_cast<std::size_t>(t)].end());
    fused_total += fused_completions[static_cast<std::size_t>(t)];
  }
  res.completed = static_cast<int>(all.size());
  res.rps = wall_ns > 0 ? 1e9 * static_cast<double>(all.size()) / wall_ns : 0;
  res.p50_ns = percentile(all, 0.50);
  res.p99_ns = percentile(all, 0.99);
  res.p999_ns = percentile(all, 0.999);
  res.fused_share =
      all.empty() ? 0
                  : static_cast<double>(fused_total) /
                        static_cast<double>(all.size());
  const std::uint64_t dispatches = after.count - before.count;
  const double requests = after.sum - before.sum;
  res.mean_batch =
      dispatches > 0 ? requests / static_cast<double>(dispatches) : 0;
  for (std::size_t b = 0;
       b < after.bounds.size() && b < after.bucket_counts.size() &&
       b < before.bucket_counts.size();
       ++b) {
    res.batch_buckets.emplace_back(
        after.bounds[b], after.bucket_counts[b] - before.bucket_counts[b]);
  }
  return res;
}

/// Phase 2: one large broadcast at a time, segmented vs bulk.
struct SegResult {
  double ns_per_op = 0;
  double rps = 0;
  std::uint32_t segments = 1;
};

SegResult run_segment_phase(const Config& cfg, std::size_t payload_bytes,
                            bool segmented) {
  svc::CollectiveService::Options opts;
  opts.pools = 1;
  if (!segmented) opts.segment_threshold = 0;
  svc::CollectiveService service(machine(), opts);
  const svc::TenantId t = service.register_tenant(
      {.name = std::string("loadgen-seg-") + (segmented ? "s" : "b") + "-" +
               std::to_string(payload_bytes)});
  const exec::Bytes payload = payload_of(payload_bytes, 7);

  SegResult res;
  // One untimed warmup op so both modes measure warm pools and buffers.
  {
    svc::Request req;
    req.op = svc::OpKind::kBroadcast;
    req.payload = payload;
    svc::SubmitResult sub = service.submit(t, std::move(req));
    if (sub.accepted()) (void)sub.response.get();
  }
  const auto t0 = std::chrono::steady_clock::now();
  int completed = 0;
  for (int i = 0; i < cfg.seg_ops; ++i) {
    svc::Request req;
    req.op = svc::OpKind::kBroadcast;
    req.payload = payload;
    svc::SubmitResult sub = service.submit(t, std::move(req));
    if (!sub.accepted()) continue;
    const svc::Response r = sub.response.get();
    if (r.status != svc::Status::kOk) continue;
    ++completed;
    res.segments = r.segments;
  }
  const auto wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  res.ns_per_op = completed > 0 ? wall_ns / completed : 0;
  res.rps = wall_ns > 0 ? 1e9 * completed / wall_ns : 0;
  return res;
}

/// Phase 3: open-loop mixed traffic.  The mix (per arrival, drawn from a
/// seeded generator): 60% interactive 64 B broadcast, 25% batch 4 KiB
/// broadcast, 15% batch f64-sum reduce (256 B per rank).
struct OpenloopClass {
  int arrivals = 0;
  int completed = 0;
  int rejected = 0;
  std::vector<double> lat;
};

void run_openloop_phase(const Config& cfg, bench::JsonReport& report) {
  svc::CollectiveService::Options opts;
  opts.pools = 2;
  svc::CollectiveService service(machine(), opts);
  constexpr int kTenants = 4;
  std::vector<svc::TenantId> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.push_back(service.register_tenant(
        {.name = "loadgen-mix-" + std::to_string(t),
         .queue_capacity = 256}));
  }
  const exec::Bytes small = payload_of(64, 1);
  const exec::Bytes big = payload_of(4096, 2);

  std::mt19937 rng(12345);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::pair<svc::QoS, std::future<svc::Response>>> pending;
  pending.reserve(static_cast<std::size_t>(cfg.arrivals));
  OpenloopClass cls[svc::kQoSClasses];

  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / std::max(cfg.rate, 1.0)));
  const auto t0 = std::chrono::steady_clock::now();
  auto next = t0;
  for (int i = 0; i < cfg.arrivals; ++i) {
    std::this_thread::sleep_until(next);
    next += interval;
    const double draw = u(rng);
    svc::Request req;
    if (draw < 0.60) {
      req.op = svc::OpKind::kBroadcast;
      req.qos = svc::QoS::kInteractive;
      req.payload = small;
    } else if (draw < 0.85) {
      req.op = svc::OpKind::kBroadcast;
      req.qos = svc::QoS::kBatch;
      req.payload = big;
    } else {
      req.op = svc::OpKind::kReduce;
      req.qos = svc::QoS::kBatch;
      req.combine = exec::Combiner(
          exec::KernelSpec{exec::Op::kSum, exec::DType::kF64});
      for (int p = 0; p < kP; ++p) req.values.push_back(payload_of(256, 3));
    }
    const svc::QoS qos = req.qos;
    auto& c = cls[static_cast<std::size_t>(qos)];
    ++c.arrivals;
    svc::SubmitResult sub = service.submit(
        tenants[static_cast<std::size_t>(i % kTenants)], std::move(req));
    if (!sub.accepted()) {
      ++c.rejected;
      continue;
    }
    pending.emplace_back(qos, std::move(sub.response));
  }
  for (auto& [qos, fut] : pending) {
    const svc::Response r = fut.get();
    auto& c = cls[static_cast<std::size_t>(qos)];
    if (r.status != svc::Status::kOk) continue;
    ++c.completed;
    c.lat.push_back(static_cast<double>(r.total_ns));
  }
  const auto wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());

  Table t({"class", "arrivals", "completed", "rejected", "p50 us", "p99 us",
           "p999 us"});
  for (std::size_t q = 0; q < svc::kQoSClasses; ++q) {
    const OpenloopClass& c = cls[q];
    if (c.arrivals == 0) continue;
    const char* name = svc::qos_name(static_cast<svc::QoS>(q));
    t.row(name, c.arrivals, c.completed, c.rejected,
          percentile(c.lat, 0.50) / 1000.0, percentile(c.lat, 0.99) / 1000.0,
          percentile(c.lat, 0.999) / 1000.0);
    report.entry("loadgen_openloop",
                 {{"qos", name},
                  {"P", std::to_string(kP)},
                  {"tenants", std::to_string(kTenants)}},
                 {{"target_rps", cfg.rate},
                  {"achieved_rps",
                   wall_ns > 0 ? 1e9 * c.completed / wall_ns : 0},
                  {"arrivals", static_cast<double>(c.arrivals)},
                  {"completed", static_cast<double>(c.completed)},
                  {"rejected", static_cast<double>(c.rejected)},
                  {"p50_ns", percentile(c.lat, 0.50)},
                  {"p99_ns", percentile(c.lat, 0.99)},
                  {"p999_ns", percentile(c.lat, 0.999)}});
  }
  t.print();
}

void add_fusion_entry(bench::JsonReport& report, const Config& cfg,
                      const std::string& mode, const PhaseResult& r) {
  std::vector<std::pair<std::string, double>> values = {
      {"collectives_per_sec", r.rps},
      {"completed", static_cast<double>(r.completed)},
      {"p50_ns", r.p50_ns},
      {"p99_ns", r.p99_ns},
      {"p999_ns", r.p999_ns},
      {"mean_batch", r.mean_batch},
      {"fused_share", r.fused_share}};
  for (const auto& [le, n] : r.batch_buckets) {
    values.emplace_back("batch_le_" + std::to_string(static_cast<int>(le)),
                        static_cast<double>(n));
  }
  report.entry("loadgen_sustained",
               {{"mode", mode},
                {"P", std::to_string(kP)},
                {"payload", "64"},
                {"submitters", std::to_string(cfg.submitters)}},
               std::move(values));
}

int usage() {
  std::cout
      << "bench_loadgen [--smoke] [--requests=N] [--seg-ops=N]\n"
      << "              [--arrivals=N] [--rate=RPS]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto num = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (arg == "--smoke") {
      cfg.smoke = true;
      cfg.requests_per_submitter = 1000;
      cfg.seg_ops = 8;
      cfg.arrivals = 500;
      cfg.rate = 2000;
    } else if (const char* v = num("--requests=")) {
      cfg.requests_per_submitter = std::atoi(v);
    } else if (const char* v2 = num("--seg-ops=")) {
      cfg.seg_ops = std::atoi(v2);
    } else if (const char* v3 = num("--arrivals=")) {
      cfg.arrivals = std::atoi(v3);
    } else if (const char* v4 = num("--rate=")) {
      cfg.rate = std::atof(v4);
    } else {
      return usage();
    }
  }

  bench::JsonReport report("throughput");

  bench::section("phase 1: fusion batching, " +
                 std::to_string(cfg.submitters) + " same-shape submitters");
  const PhaseResult unfused = run_fusion_phase(cfg, /*fused=*/false);
  const PhaseResult fused = run_fusion_phase(cfg, /*fused=*/true);
  const double ratio = unfused.rps > 0 ? fused.rps / unfused.rps : 0;
  {
    Table t({"mode", "completed", "collectives/s", "p50 us", "p99 us",
             "p999 us", "mean batch", "fused share"});
    t.row("unfused", unfused.completed, static_cast<std::int64_t>(unfused.rps),
          unfused.p50_ns / 1000.0, unfused.p99_ns / 1000.0,
          unfused.p999_ns / 1000.0, unfused.mean_batch, unfused.fused_share);
    t.row("fused", fused.completed, static_cast<std::int64_t>(fused.rps),
          fused.p50_ns / 1000.0, fused.p99_ns / 1000.0,
          fused.p999_ns / 1000.0, fused.mean_batch, fused.fused_share);
    t.print();
    std::cout << "\nfused/unfused throughput: " << ratio
              << "x (acceptance: >= 2x; smoke floor: >= 1x)\n";
  }
  add_fusion_entry(report, cfg, "unfused", unfused);
  add_fusion_entry(report, cfg, "fused", fused);
  report.entry("fusion_speedup",
               {{"P", std::to_string(kP)},
                {"payload", "64"},
                {"submitters", std::to_string(cfg.submitters)}},
               {{"fused_over_unfused", ratio}});

  bench::section("phase 2: segmented pipeline vs bulk single-send");
  {
    Table t({"payload KiB", "mode", "segments", "ns/op", "speedup"});
    for (const std::size_t bytes : {256u * 1024u, 512u * 1024u}) {
      const SegResult bulk = run_segment_phase(cfg, bytes, false);
      const SegResult seg = run_segment_phase(cfg, bytes, true);
      const double speedup =
          seg.ns_per_op > 0 ? bulk.ns_per_op / seg.ns_per_op : 0;
      t.row(bytes / 1024, "bulk", bulk.segments,
            static_cast<std::int64_t>(bulk.ns_per_op), 1.0);
      t.row(bytes / 1024, "segmented", seg.segments,
            static_cast<std::int64_t>(seg.ns_per_op), speedup);
      for (const auto* pr : {&bulk, &seg}) {
        report.entry("loadgen_segmented",
                     {{"mode", pr == &seg ? "segmented" : "bulk"},
                      {"P", std::to_string(kP)},
                      {"payload", std::to_string(bytes)}},
                     {{"ns_per_op", pr->ns_per_op},
                      {"collectives_per_sec", pr->rps},
                      {"segments", static_cast<double>(pr->segments)}});
      }
      report.entry("segment_speedup",
                   {{"P", std::to_string(kP)},
                    {"payload", std::to_string(bytes)}},
                   {{"bulk_over_segmented", speedup}});
    }
    t.print();
  }

  bench::section("phase 3: open-loop mixed traffic @ " +
                 std::to_string(static_cast<int>(cfg.rate)) + "/s");
  run_openloop_phase(cfg, report);

  report.attach_metrics(obs::MetricsRegistry::global());
  const std::string path = report.write();
  std::cout << "\n"
            << (path.empty() ? "FAILED to write bench json"
                             : "bench json: " + path)
            << "\n";

  if (cfg.smoke && ratio < 1.0) {
    std::cout << "SMOKE FAIL: fused sustained throughput (" << fused.rps
              << "/s) fell below unfused (" << unfused.rps
              << "/s) — the fusion batcher must never lose to the path it "
                 "amortizes\n";
    return 1;
  }
  if (cfg.smoke && fused.fused_share <= 0) {
    std::cout << "SMOKE FAIL: the fused phase fused no request\n";
    return 1;
  }
  return 0;
}
