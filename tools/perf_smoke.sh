#!/usr/bin/env bash
# CI perf smoke: run the scheduler microbenchmarks AND the end-to-end
# simulation-throughput benchmarks on a Release build, and fail on crash
# or on any benchmark slower than 3x its committed baseline
# (BENCH_sched_speed.json / BENCH_sim_throughput.json), or when a
# baseline benchmark the filter selects is missing from the run.
# Complexity regressions, not machine noise, are the target — see
# tools/compare_bench.py. Both comparisons pass the build type read from
# the build tree so compare_bench.py can warn loudly on a
# Release-vs-Debug mismatch.
#
# Usage: tools/perf_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR=${1:-build}
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)

BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
    "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)
BUILD_TYPE=${BUILD_TYPE:-unknown}

run_gate() {
    local binary=$1 baseline=$2 filter=$3 min_time=$4
    if [[ ! -x "$binary" ]]; then
        echo "perf_smoke: $binary not found; build the Release tree first" >&2
        exit 2
    fi
    local fresh
    fresh=$(mktemp --suffix=.json)
    # shellcheck disable=SC2064  # expand $fresh now, not at trap time
    trap "rm -f '$fresh'" RETURN
    "$binary" --benchmark_filter="$filter" \
        --benchmark_min_time="$min_time" --json "$fresh"
    python3 "$REPO_ROOT/tools/compare_bench.py" "$baseline" "$fresh" \
        --max-ratio 3.0 --fresh-build-type "$BUILD_TYPE" --filter "$filter"
}

# Scheduler-level: schedule() microbenchmarks at n in {16, 64}, plus
# lcf_central and lcf_dist replaying real n=64 request sequences (the
# warm random matrices hide branch-prediction costs a real sequence
# shows).
run_gate "$BUILD_DIR/bench/bench_sched_speed" \
    "$REPO_ROOT/BENCH_sched_speed.json" \
    '/(16|64)$|^BM_LcfCentralReplay/64/|^BM_LcfDistReplay/64/' 0.05

# End-to-end: slots/sec at n in {16, 64}, load 0.9 (the n=256 points are
# too slow for a smoke job; the committed baseline still records them),
# the simulator's own packet path at n=64 (greedy scheduler), and the
# integrated Clint row (16 hosts, bulk load 0.8).
run_gate "$BUILD_DIR/bench/bench_sim_throughput" \
    "$REPO_ROOT/BENCH_sim_throughput.json" \
    '^BM_SimThroughput/.*/(16|64)/90$|^BM_SwitchSimOwnPath/64/|^BM_ClintIntegrated/' \
    0.05
