#!/usr/bin/env bash
# Repo-wide check runner:
#   1. tier-1: full build + full ctest suite       (build/)
#   2. ASan:   serde + obs + net + dynamic + hotpath + coord + slo
#              + incremental                         (build-asan/)
#   3. TSan:   obs + service + net + dynamic + coord + slo
#              + incremental                         (build-tsan/)
#   4. UBSan:  core + landmark + service           (build-ubsan/)
#   5. bench-smoke: micro_benchmarks --smoke + ext_slo_ladder --smoke
#                   + ext_mutation_apply --smoke     (build/)
#                   + perfbench routed_read/churn_mix, 2 s each
#                                                    (.bench_build/)
#
# The sanitizer passes reuse the persistent build-asan/, build-tsan/ and
# build-ubsan/ trees (configured here on first run) and only build/run the
# labeled suites they exist to harden: byte-level parsers under ASan, the
# metrics registry + concurrent engine + epoll server under TSan, the
# floating-point scoring kernels + landmark composition + serving arithmetic
# under UBSan. The `obs` label runs under ASan too: registry snapshots and
# their merge feed the STATS series codec. The `dynamic` label (mutation
# path, delta graph, landmark repair) runs under both ASan and TSan: ASan
# for the mutation wire parsing, TSan for mutators racing readers and the
# background repair thread. The `hotpath` label (arena/flat-map scratch
# reuse, scorer differential suite) runs under ASan so a buffer carved too
# small or a stale span surfaces as a hard error rather than a wrong score.
# The `coord` label (shard plan serde, router scatter-gather, reconnect
# backoff) runs under both ASan (wire and artifact parsing) and TSan (router
# accept/connection threads against the shard servers). The `slo` label
# (pressure monitor, degradation ladder) runs under both ASan (stale-cache
# retention and tier bookkeeping) and TSan (the lock-free PressureMonitor
# hammered from concurrent writers/readers). The `incremental` label (O(Δ)
# mutation pipeline: row-patched materialization, counter-snapshot
# authority, delta-aware rebind) runs under both ASan (spliced CSR rows,
# spans into previous generations) and TSan (the apply/rebind lock split
# against concurrent generation readers).
#
# bench-smoke runs the allocation-counting smoke gate of the zero-allocation
# hot path (DESIGN.md §6.6): a warm exact query and a warm landmark query
# must report 0 heap allocations, else the step fails. It then runs the SLO
# ladder harness (DESIGN.md §6.8) in --smoke form: a tiny ramp that still
# exercises calibration, the exact-tier byte-identity probes (a mismatch
# fails the binary), and the BENCH_slo.json writer. Last, it runs the
# serving benchmark (perfbench/run.py, BENCHMARK.json) for 2 s on
# routed_read and churn_mix: the benchmark's own wire client, router and
# mutation lane against the real stack, with its correctness checks. The
# step fails unless the result line says "correct": true, so a layout slip
# that only an end-to-end exchange surfaces fails here first.
#
# Usage: tools/check.sh [tier1|asan|tsan|ubsan|bench-smoke|all] (default: all)
set -e

REPO="$(cd "$(dirname "$0")/.." && pwd)"
MODE="${1:-all}"
JOBS="${JOBS:-$(nproc)}"

run_tier1() {
  echo "==> tier-1: full build + ctest"
  cmake -B "$REPO/build" -S "$REPO" >/dev/null
  cmake --build "$REPO/build" -j "$JOBS"
  (cd "$REPO/build" && ctest --output-on-failure -j "$JOBS")
}

run_sanitized() {  # $1=sanitizer $2=build-dir $3=label-regex
  echo "==> $1: suites matching -L '$3'"
  cmake -B "$2" -S "$REPO" -DMBR_SANITIZE="$1" >/dev/null
  cmake --build "$2" -j "$JOBS"
  (cd "$2" && ctest -L "$3" --output-on-failure -j "$JOBS")
}

run_bench_smoke() {
  echo "==> bench-smoke: micro_benchmarks --smoke (zero-allocation gate)"
  cmake -B "$REPO/build" -S "$REPO" >/dev/null
  cmake --build "$REPO/build" -j "$JOBS" --target micro_benchmarks
  "$REPO/build/bench/micro_benchmarks" --smoke
  echo "==> bench-smoke: ext_slo_ladder --smoke (degradation ladder gate)"
  cmake --build "$REPO/build" -j "$JOBS" --target ext_slo_ladder
  (cd "$REPO/build/bench" && ./ext_slo_ladder --smoke)
  echo "==> bench-smoke: ext_mutation_apply --smoke (O(Δ) apply pipeline)"
  cmake --build "$REPO/build" -j "$JOBS" --target ext_mutation_apply
  (cd "$REPO/build/bench" && ./ext_mutation_apply --smoke)
  for workload in routed_read churn_mix; do
    echo "==> bench-smoke: perfbench $workload --seconds 2 (wire end to end)"
    result="$(cd "$REPO" && python3 perfbench/run.py --workload "$workload" \
      --seed 1 --seconds 2 | tail -n 1)"
    echo "$result"
    if ! printf '%s' "$result" | python3 -c \
        'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
    then
      echo "bench-smoke: perfbench $workload is not correct" >&2
      exit 1
    fi
  done
}

case "$MODE" in
  tier1) run_tier1 ;;
  asan)  run_sanitized address "$REPO/build-asan" 'serde|obs|net|dynamic|hotpath|coord|slo|incremental' ;;
  tsan)  run_sanitized thread "$REPO/build-tsan" 'obs|service|net|dynamic|coord|slo|incremental' ;;
  ubsan) run_sanitized undefined "$REPO/build-ubsan" 'core|landmark|service' ;;
  bench-smoke) run_bench_smoke ;;
  all)
    run_tier1
    run_sanitized address "$REPO/build-asan" 'serde|obs|net|dynamic|hotpath|coord|slo|incremental'
    run_sanitized thread "$REPO/build-tsan" 'obs|service|net|dynamic|coord|slo|incremental'
    run_sanitized undefined "$REPO/build-ubsan" 'core|landmark|service'
    run_bench_smoke
    ;;
  *)
    echo "usage: tools/check.sh [tier1|asan|tsan|ubsan|bench-smoke|all]" >&2
    exit 2
    ;;
esac
echo "==> check.sh: $MODE OK"
