#!/usr/bin/env bash
# Full verification: tier-1 build + tests, then the runtime concurrency
# tests again under ThreadSanitizer (-DLOGPC_TSAN=ON), then the obs,
# runtime, counting-recurrence, k-item emission and parser suites under
# ASan/UBSan (-DLOGPC_SANITIZE=address,undefined).
#
#   scripts/verify.sh            # all three passes
#   scripts/verify.sh --no-tsan  # skip the TSan pass
#   scripts/verify.sh --no-asan  # skip the ASan/UBSan pass
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
RUN_TSAN=1
RUN_ASAN=1
for arg in "$@"; do
  case "$arg" in
    --no-tsan) RUN_TSAN=0 ;;
    --no-asan) RUN_ASAN=0 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

echo "=== tier-1: build + full test suite (build/) ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "$RUN_TSAN" == 1 ]]; then
  echo
  echo "=== tsan: runtime concurrency tests (build-tsan/) ==="
  cmake -B build-tsan -S . -DLOGPC_TSAN=ON >/dev/null
  # The TSan pass only needs the concurrent pieces: the runtime suites
  # and the shared-Fib test.  Run the binaries directly — ctest in a
  # partially-built tree reports every unbuilt target as NOT_BUILT.
  cmake --build build-tsan -j "$JOBS" \
    --target test_plan_cache test_planner test_snapshot test_fib \
             test_implicit_plan \
             test_obs_metrics test_obs_trace test_obs_flight_recorder \
             test_exec_mailbox test_exec_kernels test_exec_engine \
             test_communicator_exec test_fault test_svc_sched test_svc \
             test_svc_fusion test_svc_introspect test_prometheus_lint
  ./build-tsan/tests/test_plan_cache
  ./build-tsan/tests/test_planner
  ./build-tsan/tests/test_snapshot
  ./build-tsan/tests/test_fib --gtest_filter='SharedFib.*'
  # Implicit plans are shared immutably across threads; the concurrent
  # rank_schedule sweep proves the decode paths are read-only.
  ./build-tsan/tests/test_implicit_plan \
      --gtest_filter='ImplicitPlan.ConcurrentQueriesAreRaceFree'
  ./build-tsan/tests/test_obs_metrics
  ./build-tsan/tests/test_obs_trace
  ./build-tsan/tests/test_obs_flight_recorder
  ./build-tsan/tests/test_exec_mailbox
  ./build-tsan/tests/test_exec_kernels
  ./build-tsan/tests/test_exec_engine
  ./build-tsan/tests/test_communicator_exec
  ./build-tsan/tests/test_svc_sched
  # The service suite is the headline TSan target: combining submitters
  # (SvcService.HammerOfEightSubmittersResolvesEveryFuture: 8 threads x
  # 500 submits at 1, 2 and 3 engines), shutdown and the soak all take
  # and hand back engines under one mutex.
  ./build-tsan/tests/test_svc
  # Fusion adds sibling claims behind lent engines plus multi-promise
  # fan-out; byte-exactness under TSan is the acceptance bar.
  ./build-tsan/tests/test_svc_fusion
  # Introspection races the HTTP server thread against combining
  # submitters and shutdown; the lint suite scrapes a live /metrics
  # mid-traffic.
  ./build-tsan/tests/test_svc_introspect
  ./build-tsan/tests/test_prometheus_lint
  # Fault-injection suite at the CI seed matrix: fault decisions are pure
  # hashes of the seed, so each seed exercises a different drop/delay
  # pattern through the same retry and recovery paths.
  for seed in 1 7 1993; do
    LOGPC_FAULT_SEED="$seed" ./build-tsan/tests/test_fault
  done
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  echo
  echo "=== asan/ubsan: obs + runtime + recurrence + emission + parser tests (build-asan/) ==="
  cmake -B build-asan -S . -DLOGPC_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$JOBS" \
    --target test_obs_metrics test_obs_trace test_obs_chrome \
             test_obs_critical_path test_obs_flight_recorder \
             test_plan_cache test_planner test_snapshot \
             test_implicit_plan test_exec_mailbox test_exec_kernels test_exec_engine \
             test_exec_program test_communicator_exec test_exec_property test_fault \
             test_svc_sched test_svc test_svc_fusion test_svc_introspect \
             test_prometheus_lint test_io test_tree \
             test_summation test_continuous test_kitem test_kitem_buffered \
             test_continuous_search
  ./build-asan/tests/test_obs_metrics
  ./build-asan/tests/test_obs_trace
  ./build-asan/tests/test_obs_chrome
  # The profiler's one walk, and its (L, o, g) fit against the separate
  # fit walk kept as the test's oracle.
  ./build-asan/tests/test_obs_critical_path
  ./build-asan/tests/test_obs_flight_recorder
  ./build-asan/tests/test_plan_cache
  ./build-asan/tests/test_planner
  ./build-asan/tests/test_snapshot
  ./build-asan/tests/test_implicit_plan
  ./build-asan/tests/test_exec_mailbox
  ./build-asan/tests/test_exec_kernels
  ./build-asan/tests/test_exec_engine
  # The lowering against its reference, and its refusals of malformed
  # sources (peer-indexed arrays, so bounds matter).
  ./build-asan/tests/test_exec_program
  ./build-asan/tests/test_communicator_exec
  ./build-asan/tests/test_exec_property
  ./build-asan/tests/test_svc_sched
  ./build-asan/tests/test_svc
  ./build-asan/tests/test_svc_fusion
  ./build-asan/tests/test_svc_introspect
  ./build-asan/tests/test_prometheus_lint
  # The two parsers of outside input (plan snapshots, text schedules) each
  # run a truncation/bit-flip mutation corpus; with test_snapshot above
  # (which also carries the resealed huge-L/o keys PlanKey::make bounds),
  # test_io puts both under ASan/UBSan.
  ./build-asan/tests/test_io
  # The counting recurrence and the summation's count-table arithmetic
  # (saturating adds, label sums, the closed form past B(P)) against
  # their quadratic and tree-building oracles.
  ./build-asan/tests/test_tree
  ./build-asan/tests/test_summation
  # The k-item emission indexes dense per-cycle tables (receive slots,
  # senders per step) and its oracle; the word search and the k-item
  # builders feed it.
  ./build-asan/tests/test_continuous
  ./build-asan/tests/test_kitem
  ./build-asan/tests/test_kitem_buffered
  ./build-asan/tests/test_continuous_search
  for seed in 1 7 1993; do
    LOGPC_FAULT_SEED="$seed" ./build-asan/tests/test_fault
  done
fi

echo
echo "verify: OK"
