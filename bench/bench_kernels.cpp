#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "bcast/reduction.hpp"
#include "bench_util.hpp"
#include "exec/engine.hpp"
#include "exec/kernels.hpp"
#include "exec/program.hpp"

/// Fast-lane reproduction bench: typed SIMD combine kernels vs the scalar
/// generic reference, measured on the exact workload the engine runs — a
/// reduction root's fold chain of P-1 payloads — across a payload × P ×
/// (op, dtype) grid.  Writes BENCH_kernels.json with per-cell throughput
/// and speedup; scripts/perf_smoke.sh diffs those speedups against the
/// committed baseline.
///
/// The acceptance bar for this PR: >= 4x kernel-vs-generic throughput for
/// sum/f32 and sum/i64 at payloads >= 64 KiB on >= 8 ranks.  The fold
/// chain is measured single-threaded on plain `Bytes` buffers (the
/// engine's own accumulator type, whose operator-new alignment covers
/// every dtype, so the kernel takes its aligned lane), so the ratio
/// isolates the combine lane from thread scheduling noise.

namespace {

using namespace logpc;
using namespace logpc::exec;
using Clock = std::chrono::steady_clock;

const std::size_t kPayloads[] = {64, 1024, 64 * 1024, 1 << 20, 16 << 20};
const int kRanks[] = {2, 4, 8, 16};
const KernelSpec kSpecs[] = {
    {Op::kSum, DType::kF32},
    {Op::kSum, DType::kI64},
    {Op::kMin, DType::kI32},
    {Op::kMax, DType::kF64},
};

void fill_random(std::byte* p, std::size_t n, std::mt19937& rng, DType t) {
  if (t == DType::kF32) {
    std::uniform_real_distribution<float> d(-1000.0f, 1000.0f);
    for (std::size_t i = 0; i + sizeof(float) <= n; i += sizeof(float)) {
      const float v = d(rng);
      std::memcpy(p + i, &v, sizeof v);
    }
  } else if (t == DType::kF64) {
    std::uniform_real_distribution<double> d(-1000.0, 1000.0);
    for (std::size_t i = 0; i + sizeof(double) <= n; i += sizeof(double)) {
      const double v = d(rng);
      std::memcpy(p + i, &v, sizeof v);
    }
  } else {
    std::uniform_int_distribution<int> d(0, 255);
    for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::byte>(d(rng));
  }
}

struct CellResult {
  double kernel_gbps = 0;
  double generic_gbps = 0;
  double speedup = 0;
};

/// Times one reduction-root fold chain — (P-1) folds of `payload` bytes —
/// through both lanes.  Iteration count adapts so each rep folds at least
/// ~24 MiB (or 3 iterations for the 16 MiB cells), and each lane takes
/// the best of three interleaved reps: on a shared host a single
/// preemption inside a short kernel window would otherwise skew the
/// ratio, and min-of-reps is the standard outlier-rejecting estimator
/// for throughput.
CellResult measure_cell(const KernelSpec& spec, std::size_t payload, int P,
                        std::mt19937& rng) {
  const std::size_t chain = static_cast<std::size_t>(P - 1);
  Bytes acc_buf(payload);
  std::byte* acc = acc_buf.data();
  std::vector<Bytes> operands(chain, Bytes(payload));
  fill_random(acc, payload, rng, spec.dtype);
  for (Bytes& op : operands) fill_random(op.data(), payload, rng, spec.dtype);
  Bytes acc_vec = acc_buf;

  const std::size_t bytes_per_iter = payload * chain;
  const std::size_t iters = std::max<std::size_t>(
      3, (std::size_t{24} << 20) / std::max<std::size_t>(bytes_per_iter, 1));
  constexpr int kReps = 3;

  const KernelFn k = lookup(spec);
  const CombineFn g = generic_combine(spec);

  double kernel_s = 1e30;
  double generic_s = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t it = 0; it < iters; ++it) {
      for (const Bytes& op : operands) k(acc, op.data(), payload);
    }
    const auto t1 = Clock::now();
    benchmark::DoNotOptimize(acc[0]);
    for (std::size_t it = 0; it < iters; ++it) {
      for (const Bytes& op : operands) g(acc_vec, op);
    }
    const auto t2 = Clock::now();
    benchmark::DoNotOptimize(acc_vec.data());
    kernel_s =
        std::min(kernel_s, std::chrono::duration<double>(t1 - t0).count());
    generic_s =
        std::min(generic_s, std::chrono::duration<double>(t2 - t1).count());
  }

  const double total = static_cast<double>(bytes_per_iter) *
                       static_cast<double>(iters) / 1e9;
  CellResult r;
  r.kernel_gbps = total / std::max(kernel_s, 1e-12);
  r.generic_gbps = total / std::max(generic_s, 1e-12);
  r.speedup = r.kernel_gbps / std::max(r.generic_gbps, 1e-12);
  return r;
}

std::string human_size(std::size_t n) {
  if (n >= (1 << 20)) return std::to_string(n >> 20) + "MiB";
  if (n >= 1024) return std::to_string(n >> 10) + "KiB";
  return std::to_string(n) + "B";
}

void report() {
  bench::section("typed combine kernels vs generic reference (fold chain)");
  auto& json = bench::global_report("kernels");
  std::mt19937 rng(2026);

  bool bar_met = true;
  for (const KernelSpec& spec : kSpecs) {
    bench::Table t({"payload", "P", "kernel GB/s", "generic GB/s", "speedup"});
    for (const std::size_t payload : kPayloads) {
      for (const int P : kRanks) {
        const CellResult r = measure_cell(spec, payload, P, rng);
        char kbuf[32], gbuf[32], sbuf[32];
        std::snprintf(kbuf, sizeof kbuf, "%.2f", r.kernel_gbps);
        std::snprintf(gbuf, sizeof gbuf, "%.2f", r.generic_gbps);
        std::snprintf(sbuf, sizeof sbuf, "%.2fx", r.speedup);
        t.row(human_size(payload), P, kbuf, gbuf, sbuf);
        json.entry("fold_chain",
                   {{"op", op_name(spec.op)},
                    {"dtype", dtype_name(spec.dtype)},
                    {"payload", std::to_string(payload)},
                    {"P", std::to_string(P)}},
                   {{"kernel_gbps", r.kernel_gbps},
                    {"generic_gbps", r.generic_gbps},
                    {"speedup", r.speedup}});
        const bool bar_cell = spec.op == Op::kSum &&
                              (spec.dtype == DType::kF32 ||
                               spec.dtype == DType::kI64) &&
                              payload >= 64 * 1024 && P >= 8;
        if (bar_cell && r.speedup < 4.0) bar_met = false;
      }
    }
    bench::section(spec.name());
    t.print();
  }
  std::cout << "\nacceptance (>=4x for sum/f32 & sum/i64 at >=64KiB, P>=8): "
            << bench::ok(bar_met) << "\n";

  // Engine end-to-end subset: one reduction through each lane.  On a
  // shared/oversubscribed host the wall times are thread-scheduling noisy;
  // they are recorded for the trajectory, not gated.
  bench::section("engine end-to-end reduce (informational)");
  {
    const Params params{8, 4, 1, 2};
    const bcast::ReductionPlan plan = bcast::optimal_reduction(params, 0);
    const Program prog = compile_reduction(plan);
    const std::size_t payload = 1 << 20;
    std::vector<Bytes> values;
    for (int p = 0; p < params.P; ++p) {
      Bytes b(payload);
      fill_random(b.data(), payload, rng, DType::kF32);
      values.push_back(std::move(b));
    }
    const KernelSpec spec{Op::kSum, DType::kF32};
    Engine engine;
    // Warm the pool.
    (void)engine.run(prog, FoldValues{values, Combiner(spec)});
    const ExecReport generic_run =
        engine.run(prog, FoldValues{values, generic_combine(spec)});
    const ExecReport typed_run =
        engine.run(prog, FoldValues{values, Combiner(spec)});
    bench::Table t({"lane", "wall ms", "kernel folds"});
    char g[32], k[32];
    std::snprintf(g, sizeof g, "%.3f",
                  static_cast<double>(generic_run.wall_ns) / 1e6);
    std::snprintf(k, sizeof k, "%.3f",
                  static_cast<double>(typed_run.wall_ns) / 1e6);
    t.row("generic", g, generic_run.kernel_folds);
    t.row("typed", k, typed_run.kernel_folds);
    t.print();
    json.entry("engine_reduce",
               {{"op", "sum"}, {"dtype", "f32"},
                {"payload", std::to_string(payload)},
                {"P", std::to_string(params.P)}},
               {{"generic_wall_ms",
                 static_cast<double>(generic_run.wall_ns) / 1e6},
                {"typed_wall_ms",
                 static_cast<double>(typed_run.wall_ns) / 1e6}});
  }
}

// --- microbenchmarks --------------------------------------------------------

void BM_KernelFold(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  const KernelSpec spec{Op::kSum, DType::kF32};
  const KernelFn k = lookup(spec);
  Bytes acc(payload);
  Bytes rhs(payload);
  std::mt19937 rng(1);
  fill_random(acc.data(), payload, rng, spec.dtype);
  fill_random(rhs.data(), payload, rng, spec.dtype);
  for (auto _ : state) {
    k(acc.data(), rhs.data(), payload);
    benchmark::DoNotOptimize(acc[0]);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload));
}
BENCHMARK(BM_KernelFold)->Arg(1024)->Arg(64 * 1024)->Arg(1 << 20);

void BM_GenericFold(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  const KernelSpec spec{Op::kSum, DType::kF32};
  const CombineFn g = generic_combine(spec);
  Bytes acc(payload);
  Bytes rhs(payload);
  std::mt19937 rng(1);
  fill_random(acc.data(), payload, rng, spec.dtype);
  fill_random(rhs.data(), payload, rng, spec.dtype);
  for (auto _ : state) {
    g(acc, std::span<const std::byte>(rhs.data(), rhs.size()));
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload));
}
BENCHMARK(BM_GenericFold)->Arg(1024)->Arg(64 * 1024)->Arg(1 << 20);

}  // namespace

LOGPC_BENCH_MAIN(report)
