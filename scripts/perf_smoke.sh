#!/usr/bin/env bash
# Perf smoke: build bench_kernels + bench_exec in Release, run the report
# grids (microbenchmarks skipped — the grids already time every cell), and
# diff the fresh BENCH_kernels.json speedups against the committed
# baseline (scripts/perf_diff.py: per-(op,dtype,payload) median speedup
# across the P sweep, +/-25% guardrail with a 6x absolute floor).
#
#   scripts/perf_smoke.sh                # run + diff
#   scripts/perf_smoke.sh --rebaseline   # run + fold into the baseline
#
# --rebaseline min-merges the fresh run into the committed baseline
# (per-cell minimum speedup), so the baseline converges on the slowest
# honest measurement per cell and load-spiked outliers never stick.  It
# writes nothing when any gate failed.
#
# Every bench runs even when an earlier one fails; the script then lists
# the failed gates and exits 1.
#
# The CI job running this is non-blocking: shared runners make absolute
# throughput noisy, so a failed diff is a signal to look, not a gate.
# BENCH_exec.json is produced for the artifact trail but not diffed — its
# wall-clock makespans depend on thread scheduling and have no stable
# per-cell ratio to guard.  bench_service gates (exit non-zero) on its
# warm/cold throughput ratio, >= 2x in both serving classes: a
# same-machine ratio whose committed readings sit far above the floor.
# bench_profile gates too: it compares profile-on vs profile-off medians
# measured back-to-back on the same machine, so runner load cancels out of
# the ratio.  bench_fault gates on outcomes, not timings: every
# rep must end kOk fault-free and under drops, and kRecovered on the seven
# survivors when rank 3 dies.
set -euo pipefail
cd "$(dirname "$0")/.."

REBASELINE=0
for arg in "$@"; do
  case "$arg" in
    --rebaseline) REBASELINE=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

JOBS="${JOBS:-$(nproc)}"
BUILD=build-perf
BASELINE=bench/baselines/BENCH_kernels.json
# BENCH_*.json land at the repo root by default so the artifact trail sits
# next to the sources that produced it; override with LOGPC_BENCH_DIR.
OUT="${LOGPC_BENCH_DIR:-.}"
mkdir -p "$OUT"

echo "=== perf smoke: Release build ($BUILD/) ==="
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j "$JOBS" \
  --target bench_kernels bench_exec bench_service bench_loadgen \
  bench_profile bench_plan_cache bench_fault

# Every bench runs whatever an earlier one returned: a non-zero exit is
# recorded, the rest still run, and the script fails at the end listing
# every failed gate.
export LOGPC_BENCH_DIR="$OUT"
FAILED=()
run_gate() {
  local name="$1"
  shift
  echo
  echo "=== $name ==="
  if ! "$@"; then
    echo "perf_smoke: $name FAILED"
    FAILED+=("$name")
  fi
}

run_gate bench_kernels \
  "./$BUILD/bench/bench_kernels" --benchmark_filter='^$' 2>/dev/null

run_gate bench_exec \
  "./$BUILD/bench/bench_exec" --benchmark_filter='^$' 2>/dev/null

# Sustained service throughput (warm daemon vs cold per-run engines).
# Absolute req/s moves with runner load, so BENCH_throughput.json only
# records it; the gate (exit non-zero) is the same-machine warm/cold ratio,
# which must reach 2x for both the interactive and the batch class.
run_gate bench_service \
  "./$BUILD/bench/bench_service" --benchmark_filter='^$' 2>/dev/null

# High-throughput path: fusion batching and the segmented pipeline under
# sustained load.  Gates on its internal floor (fused >= unfused); the
# LOGPC_BENCH_MERGE flag appends its entries to the BENCH_throughput.json
# bench_service just wrote instead of overwriting it.
run_gate "bench_loadgen --smoke" \
  env LOGPC_BENCH_MERGE=1 "./$BUILD/bench/bench_loadgen" --smoke

# Always-on profiling overhead on the warm serving path.  This one gates:
# profile-on vs profile-off is a same-machine ratio, so it is stable even
# on loaded runners; a breach means obs::analyze got expensive.
run_gate bench_profile "./$BUILD/bench/bench_profile"

# Plan-cache grids plus the implicit-plan acceptance gate: the planner's
# O(log P) build must beat materializing the IR with the direct builder by
# >= 100x at P = 2^20, planning + structurally simulating a 1M-rank
# broadcast must succeed, warm cache hits must beat cold builds by >= 50x
# at 1, 4 and 8 threads, and telemetry must cost < 5% on a warm
# Planner::plan.  Gates (exit non-zero): all four checks are same-machine
# ratios / pass-fail sweeps.
run_gate "bench_plan_cache (million-rank smoke)" \
  "./$BUILD/bench/bench_plan_cache" --benchmark_filter='^$' 2>/dev/null

# Fault-tolerant broadcast, fault-free / lossy / one rank killed.  Gates
# (exit non-zero) when any rep ends with the wrong RunStatus or survivor
# count; the wall times are recorded in BENCH_fault.json only.
run_gate bench_fault \
  "./$BUILD/bench/bench_fault" --benchmark_filter='^$' 2>/dev/null

# report_and_exit: prints the failed gates (if any) and exits accordingly.
report_and_exit() {
  echo
  if ((${#FAILED[@]})); then
    echo "perf_smoke: ${#FAILED[@]} gate(s) FAILED:"
    printf '  - %s\n' "${FAILED[@]}"
    exit 1
  fi
  echo "perf_smoke: every gate passed"
  exit 0
}

# Baselines are written only from a run whose gates all passed.
if ((${#FAILED[@]})) &&
  [[ "$REBASELINE" == 1 || ! -f "$BASELINE" ]]; then
  echo
  echo "perf_smoke: not writing baselines after a failed gate"
  report_and_exit
fi

if [[ "$REBASELINE" == 1 || ! -f "$BASELINE" ]]; then
  mkdir -p "$(dirname "$BASELINE")"
  if [[ -f "$BASELINE" ]]; then
    python3 - "$BASELINE" "$OUT/BENCH_kernels.json" <<'EOF'
import json, sys
base_path, fresh_path = sys.argv[1], sys.argv[2]
base = json.load(open(base_path))
fresh = json.load(open(fresh_path))
def key(e):
    p = e["params"]
    return (p["op"], p["dtype"], p["payload"], p["P"])
cells = {key(e): e for e in base["entries"] if e.get("name") == "fold_chain"}
for e in fresh["entries"]:
    if e.get("name") != "fold_chain":
        continue
    k = key(e)
    if k not in cells or e["speedup"] < cells[k]["speedup"]:
        cells[k] = e
rest = [e for e in base["entries"] if e.get("name") != "fold_chain"]
base["entries"] = sorted(
    cells.values(),
    key=lambda e: (e["params"]["op"], e["params"]["dtype"],
                   int(e["params"]["payload"]), int(e["params"]["P"]))) + rest
json.dump(base, open(base_path, "w"), indent=1)
print(f"perf_smoke: min-merged {len(cells)} cells into baseline")
EOF
  else
    cp "$OUT/BENCH_kernels.json" "$BASELINE"
  fi
  echo
  echo "perf_smoke: baseline written to $BASELINE"
  report_and_exit
fi

run_gate "diff vs $BASELINE" \
  python3 scripts/perf_diff.py "$BASELINE" "$OUT/BENCH_kernels.json" \
  --tolerance 0.25
report_and_exit
