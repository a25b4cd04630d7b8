/// The planning-runtime bench: cold vs. warm planning throughput through
/// the concurrent plan cache (src/runtime), for a k-item broadcast grid,
/// under 1, 4 and 8 requester threads.
///
/// Cold = every request routed to the Section 3 builders (fresh planner per
/// pass, measured via Planner::build_uncached); warm = the same requests
/// served from the sharded LRU cache.  The acceptance bar is a >= 50x warm
/// speedup at every thread count (exit 1 otherwise); typical results are
/// orders of magnitude beyond it.  A snapshot of the grid must also reload
/// into the producer's plans and replay with zero builds (exit 1 otherwise).
/// A cold-compile grid (ns per message lowered from a cached plan, per
/// collective family) is recorded alongside, not gated.

#include "bench_util.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "api/communicator.hpp"
#include "bcast/single_item.hpp"
#include "obs/metrics.hpp"
#include "runtime/implicit_plan.hpp"
#include "runtime/planner.hpp"
#include "runtime/snapshot.hpp"
#include "runtime/warmup.hpp"
#include "sim/implicit_sim.hpp"

namespace {

using namespace logpc;
using runtime::PlanKey;
using runtime::Planner;
using logpc::bench::Table;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The k-item broadcast grid the acceptance criterion names.
std::vector<PlanKey> kitem_grid() {
  runtime::WarmupGrid grid;
  grid.problems = {runtime::Problem::kKItemBroadcast};
  for (const int P : {6, 9, 10, 13, 17, 22}) {
    for (const Time L : {2, 3, 4}) {
      grid.machines.push_back(Params::postal(P, L));
    }
  }
  grid.ks = {2, 4, 8, 16};
  return grid.keys();
}

/// One timed pass: `threads` workers plan every key in `keys` against
/// `planner`, work-stealing chunks of 64 keys off a shared counter (one
/// claim per key would time the counter's cache-line ping-pong, not the
/// plan cache).  Returns seconds.
double run_pass(Planner& planner, const std::vector<PlanKey>& keys,
                unsigned threads) {
  constexpr std::size_t kChunk = 64;
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  auto worker = [&] {
    for (;;) {
      const std::size_t begin =
          next.fetch_add(kChunk, std::memory_order_relaxed);
      if (begin >= keys.size()) return;
      const std::size_t end = std::min(begin + kChunk, keys.size());
      for (std::size_t i = begin; i < end; ++i) {
        benchmark::DoNotOptimize(planner.plan(keys[i]));
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return seconds_since(start);
}

/// Mean ns per warm planner.plan(key) over `iters` calls.
double warm_ns_per_op(Planner& planner, const PlanKey& key, int iters) {
  const auto start = Clock::now();
  for (int i = 0; i < iters; ++i) {
    benchmark::DoNotOptimize(planner.plan(key));
  }
  return seconds_since(start) * 1e9 / iters;
}

void report() {
  logpc::bench::JsonReport json("plan_cache");
  logpc::bench::section("plan-cache runtime: cold vs warm planning");
  const std::vector<PlanKey> keys = kitem_grid();
  std::cout << keys.size() << " distinct k-item keys "
            << "(P in {6..22}, L in {2..4}, k in {2..16})\n\n";

  // Warm reference pass count: hammer the cached keys many times over so
  // the warm timing is measurable.
  constexpr int kWarmRounds = 200;
  std::vector<PlanKey> warm_keys;
  warm_keys.reserve(keys.size() * kWarmRounds);
  for (int r = 0; r < kWarmRounds; ++r) {
    warm_keys.insert(warm_keys.end(), keys.begin(), keys.end());
  }

  Table t({"threads", "cold plans/s", "warm plans/s", "speedup",
           ">=50x"});
  bool warm_ok = true;
  for (const unsigned threads : {1u, 4u, 8u}) {
    // Cold: a fresh planner; every request reaches a builder (the warmup
    // pool reports built == keys so each key is constructed exactly once —
    // throughput is builds over wall time).  Warm: same planner, same keys,
    // many rounds, all cache hits.  Best of three (cold, warm) pairs, as
    // for the telemetry check below: a cold pass is about a millisecond,
    // so one scheduler hiccup would otherwise decide the ratio.
    std::optional<Planner> cold;
    double cold_secs = 1e300;
    double warm_secs = 1e300;
    std::size_t built = 0;
    for (int pass = 0; pass < 3; ++pass) {
      cold.emplace();
      const auto cold_start = Clock::now();
      built = runtime::warmup(*cold, keys, threads).built;
      cold_secs = std::min(cold_secs, seconds_since(cold_start));
      warm_secs = std::min(warm_secs, run_pass(*cold, warm_keys, threads));
    }
    const double cold_rate = static_cast<double>(built) / cold_secs;
    const double warm_rate =
        static_cast<double>(warm_keys.size()) / warm_secs;

    const double speedup = warm_rate / cold_rate;
    t.row(threads, static_cast<std::int64_t>(cold_rate),
          static_cast<std::int64_t>(warm_rate),
          static_cast<std::int64_t>(speedup),
          logpc::bench::ok(speedup >= 50.0));
    if (speedup < 50.0) warm_ok = false;

    const runtime::CacheStats cs = cold->cache().stats();
    json.entry("cold_vs_warm", {{"threads", std::to_string(threads)}},
               {{"cold_plans_per_s", cold_rate},
                {"warm_plans_per_s", warm_rate},
                {"speedup", speedup},
                {"warm_ns_per_op", 1e9 / warm_rate},
                {"cache_hits", static_cast<double>(cs.hits)},
                {"cache_misses", static_cast<double>(cs.misses)},
                {"cache_hit_ratio", cs.hit_ratio()},
                {"cache_entries", static_cast<double>(cs.entries)}});
  }
  t.print();

  // Telemetry overhead on the warm path: the same single-key hit loop with
  // the obs layer enabled vs disabled (best of seven passes each, with the
  // side that runs first alternating per round so neither inherits the
  // other's warm-up or frequency state, to shake out scheduler noise).
  // The acceptance bar is < 5%; missing it fails the bench.
  logpc::bench::section("telemetry overhead on warm Planner::plan");
  bool telemetry_ok = true;
  {
    Planner planner;
    const PlanKey key = PlanKey::kitem(Params::postal(17, 3), 8);
    (void)planner.plan(key);
    constexpr int kIters = 1'000'000;
    (void)warm_ns_per_op(planner, key, kIters / 10);  // warm up caches
    double on_ns = 1e300;
    double off_ns = 1e300;
    for (int round = 0; round < 7; ++round) {
      for (const bool enabled : {round % 2 == 0, round % 2 != 0}) {
        obs::set_enabled(enabled);
        double& best = enabled ? on_ns : off_ns;
        best = std::min(best, warm_ns_per_op(planner, key, kIters));
      }
    }
    obs::set_enabled(true);
    const double overhead_pct = (on_ns - off_ns) / off_ns * 100.0;
    std::cout << "enabled " << on_ns << " ns/op, disabled " << off_ns
              << " ns/op, overhead " << overhead_pct << "% ("
              << logpc::bench::ok(overhead_pct < 5.0) << ": < 5%)\n";
    telemetry_ok = overhead_pct < 5.0;
    json.entry("telemetry_overhead", {},
               {{"enabled_ns_per_op", on_ns},
                {"disabled_ns_per_op", off_ns},
                {"overhead_pct", overhead_pct}});
  }

  // Snapshot round trip: the snapshot holds the grid's keys only; loading
  // rebuilds every plan, after which replaying the grid builds nothing and
  // every loaded plan is the producer's.  Failing either fails the bench.
  Planner producer;
  (void)runtime::warmup(producer, keys, 4);
  std::stringstream snap;
  const std::size_t saved = runtime::save_snapshot(producer.cache(), snap);
  const std::size_t snapshot_bytes = snap.str().size();
  Planner consumer;
  const auto load_start = Clock::now();
  (void)runtime::load_snapshot(consumer.cache(), snap);
  const double load_secs = seconds_since(load_start);
  const double replay_secs = run_pass(consumer, keys, 1);
  std::size_t mismatched = 0;
  for (const PlanKey& key : keys) {
    const runtime::PlanPtr want = producer.plan(key);
    const runtime::PlanPtr got = consumer.plan(key);
    if (runtime::plan_schedule(*got) != runtime::plan_schedule(*want) ||
        got->completion != want->completion || got->method != want->method) {
      ++mismatched;
    }
  }
  const bool snapshot_ok = consumer.builds() == 0 && mismatched == 0;
  std::cout << "\nsnapshot: " << saved << " keys in " << snapshot_bytes
            << " B, loaded (rebuilt) in " << load_secs * 1e3
            << " ms; hot-started replay of the grid took "
            << replay_secs * 1e3 << " ms with " << consumer.builds()
            << " builds and " << mismatched << " plans unlike the producer's ("
            << logpc::bench::ok(snapshot_ok) << ": 0 and 0)\n";
  json.entry("snapshot_replay", {},
             {{"plans_saved", static_cast<double>(saved)},
              {"snapshot_bytes", static_cast<double>(snapshot_bytes)},
              {"load_ms", load_secs * 1e3},
              {"replay_ms", replay_secs * 1e3},
              {"replay_builds", static_cast<double>(consumer.builds())},
              {"mismatched_plans", static_cast<double>(mismatched)}});

  // ---- implicit vs materialized build latency (single-item broadcast) ---
  // The large-P acceptance bar: the planner's build (the O(log P)
  // generator form) must beat materializing the per-op IR with the direct
  // builder by >= 100x at the top of the grid, and planning + structurally
  // simulating P = 1M must succeed — this is the CI million-rank smoke.
  logpc::bench::section(
      "implicit vs materialized plan-build latency (optimal broadcast)");
  bool gate_ok = true;
  double top_speedup = 0.0;
  {
    Table grid({"P", "materialized ms", "implicit us", "speedup",
                "implicit bytes"});
    for (const int P : {1 << 10, 1 << 14, 1 << 17, 1 << 20}) {
      const Params m{P, 4, 1, 2};
      const PlanKey key = PlanKey::broadcast(m);
      double mat_secs = 1e300;
      double imp_secs = 1e300;
      const int rounds = P >= (1 << 17) ? 2 : 3;
      for (int r = 0; r < rounds; ++r) {
        const auto s0 = Clock::now();
        benchmark::DoNotOptimize(bcast::optimal_single_item(m, key.root));
        mat_secs = std::min(mat_secs, seconds_since(s0));
      }
      for (int r = 0; r < 5; ++r) {
        const auto s0 = Clock::now();
        benchmark::DoNotOptimize(Planner::build_uncached(key));
        imp_secs = std::min(imp_secs, seconds_since(s0));
      }
      const double speedup = mat_secs / imp_secs;
      top_speedup = speedup;  // last row = largest P
      const std::size_t bytes =
          runtime::ImplicitPlan::build(key).memory_bytes();
      grid.row(P, mat_secs * 1e3, imp_secs * 1e6,
               static_cast<std::int64_t>(speedup),
               static_cast<std::int64_t>(bytes));
      json.entry("implicit_vs_materialized",
                 {{"P", std::to_string(P)}},
                 {{"materialized_build_ms", mat_secs * 1e3},
                  {"implicit_build_us", imp_secs * 1e6},
                  {"speedup", speedup},
                  {"implicit_bytes", static_cast<double>(bytes)}});
    }
    grid.print();
    std::cout << "speedup at P = 2^20: " << top_speedup << "x ("
              << logpc::bench::ok(top_speedup >= 100.0) << ": >= 100x)\n";
    if (top_speedup < 100.0) gate_ok = false;
  }

  // ---- million-rank smoke: plan, simulate, query ------------------------
  logpc::bench::section("million-rank planning smoke (P = 1,000,000)");
  {
    const Params m{1'000'000, 4, 1, 2};
    Planner planner;  // broadcast plans are implicit-only at every P
    const auto plan_start = Clock::now();
    const runtime::PlanPtr plan = planner.plan(PlanKey::broadcast(m));
    const double plan_secs = seconds_since(plan_start);
    const bool implicit_only =
        plan->implicit != nullptr && !plan->materialized;

    const auto sim_start = Clock::now();
    const sim::ImplicitRunResult run =
        implicit_only ? sim::run_implicit(*plan->implicit)
                      : sim::ImplicitRunResult{};
    const double sim_secs = seconds_since(sim_start);

    // Per-rank query latency over scattered ranks (O(log P) decodes).
    double query_ns = 0.0;
    if (implicit_only) {
      constexpr int kQueries = 10'000;
      std::uint64_t seed = 0x9e3779b97f4a7c15ull;
      const auto q0 = Clock::now();
      for (int i = 0; i < kQueries; ++i) {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        const auto p = static_cast<ProcId>(seed % 1'000'000);
        benchmark::DoNotOptimize(plan->implicit->rank_schedule(p));
      }
      query_ns = seconds_since(q0) * 1e9 / kQueries;
    }

    std::cout << "plan build " << plan_secs * 1e3 << " ms, full 1M-rank sim "
              << sim_secs * 1e3 << " ms (" << (run.ok ? "ok" : "FAILED")
              << "), rank_schedule " << query_ns << " ns/query, entry "
              << (implicit_only ? plan->implicit->memory_bytes() : 0)
              << " bytes\n";
    if (!implicit_only || !run.ok) {
      std::cout << "million-rank smoke FAILED"
                << (run.error.empty() ? "" : ": " + run.error) << "\n";
      gate_ok = false;
    }
    json.entry("million_rank", {},
               {{"plan_ms", plan_secs * 1e3},
                {"sim_ms", sim_secs * 1e3},
                {"sim_ok", run.ok ? 1.0 : 0.0},
                {"ranks", static_cast<double>(run.ranks)},
                {"makespan", static_cast<double>(run.makespan)},
                {"rank_query_ns", query_ns},
                {"implicit_bytes",
                 implicit_only
                     ? static_cast<double>(plan->implicit->memory_bytes())
                     : 0.0}});
  }

  // ---- cold compile: plan -> instruction streams ------------------------
  // The plan is cached; every compile lowers it afresh, as the planning
  // sweep does for each new key.  Recorded, not a gate.
  logpc::bench::section("cold compile (cached plan -> exec::Program)");
  {
    struct Case {
      const char* family;
      runtime::Problem problem;
      Params params;
      std::int64_t k;
    };
    const Case cases[] = {
        {"bcast", runtime::Problem::kBroadcast, Params{1024, 6, 1, 2}, 1},
        {"reduce", runtime::Problem::kReduce, Params{1024, 6, 1, 2}, 1},
        {"allgather", runtime::Problem::kAllToAll, Params{128, 6, 1, 2}, 1},
        {"kitem", runtime::Problem::kKItemBroadcast, Params::postal(64, 6),
         16},
        {"summation", runtime::Problem::kSummation, Params{64, 6, 1, 2},
         4096},
    };
    constexpr int kCompiles = 51;
    Table grid({"family", "P", "k", "messages", "median us", "ns/message"});
    for (const Case& c : cases) {
      const api::Communicator comm(c.params, std::make_shared<Planner>());
      const std::size_t messages = comm.compile(c.problem, c.k).num_messages;
      std::vector<double> ns;
      for (int i = 0; i < kCompiles; ++i) {
        const auto s0 = Clock::now();
        benchmark::DoNotOptimize(comm.compile(c.problem, c.k));
        ns.push_back(seconds_since(s0) * 1e9);
      }
      std::nth_element(ns.begin(), ns.begin() + kCompiles / 2, ns.end());
      const double median_ns = ns[kCompiles / 2];
      const double per_message =
          median_ns / static_cast<double>(std::max<std::size_t>(messages, 1));
      grid.row(c.family, c.params.P, c.k,
               static_cast<std::int64_t>(messages), median_ns / 1e3,
               per_message);
      json.entry("cold_compile",
                 {{"family", c.family},
                  {"P", std::to_string(c.params.P)},
                  {"k", std::to_string(c.k)}},
                 {{"messages", static_cast<double>(messages)},
                  {"median_us", median_ns / 1e3},
                  {"ns_per_message", per_message}});
    }
    grid.print();
    std::cout << "median of " << kCompiles
              << " compiles each (recorded, not a gate)\n";
  }

  json.attach_metrics(obs::MetricsRegistry::global());
  const std::string path = json.write();
  std::cout << (path.empty() ? "FAILED to write bench json"
                             : "bench json: " + path)
            << "\n";
  if (!warm_ok) {
    std::cout << "bench_plan_cache: cold-vs-warm >= 50x gate FAILED\n";
  }
  if (!telemetry_ok) {
    std::cout << "bench_plan_cache: telemetry overhead gate FAILED\n";
  }
  if (!gate_ok) {
    std::cout << "bench_plan_cache: implicit-plan acceptance gate FAILED\n";
  }
  if (!warm_ok || !telemetry_ok || !snapshot_ok || !gate_ok) std::exit(1);
}

void BM_ColdPlan(benchmark::State& state) {
  const PlanKey key = PlanKey::kitem(Params::postal(17, 3), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Planner::build_uncached(key));
  }
}
BENCHMARK(BM_ColdPlan);

void BM_WarmPlan(benchmark::State& state) {
  Planner planner;
  const PlanKey key = PlanKey::kitem(Params::postal(17, 3), 8);
  (void)planner.plan(key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(key));
  }
}
BENCHMARK(BM_WarmPlan);

void BM_WarmPlanContended(benchmark::State& state) {
  // google-benchmark threads all hammer one cached key.
  static Planner* planner = new Planner;
  const PlanKey key = PlanKey::kitem(Params::postal(17, 3), 8);
  (void)planner->plan(key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner->plan(key));
  }
}
BENCHMARK(BM_WarmPlanContended)->Threads(4)->Threads(8);

}  // namespace

LOGPC_BENCH_MAIN(report)
