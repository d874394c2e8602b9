#!/usr/bin/env bash
# The repository's bench regression gates, runnable locally exactly as
# CI runs them.  Each gate compares freshly simulated output against
# the committed BENCH_*.json baselines and/or demands byte-identical
# JSON across worker-thread counts (the determinism contract).
#
# Usage:
#   scripts/bench_gates.sh <build-dir> [gate...]
#   scripts/bench_gates.sh --twin <scalar-build-dir> <simd-build-dir>
#
# With no gate names, every gate runs in order.  Gates:
#   harness     bench_fig2 / bench_table4 1-vs-8-thread byte identity
#   matrix      bench_matrix smoke: 1v8 identity, counters identity,
#               bad-selection must-fail
#   hotpath     bench_hotpath smoke vs BENCH_hotpath.json
#   scalar-flip LLCF_SCALAR_TAGS=1 runs match the vectorized bytes
#   resume      campaign interrupt/resume byte identity (fork path)
#   fullscale   reduced fleet vs BENCH_fullscale.json bands
#   e2e calib defense traffic
#               one suite each (gate_suite): smoke vs BENCH_<suite>.json
#               (bands + the suite's invariants), 1v8 identity,
#               unknown-cell must-fail
#
# --twin mode runs the cross-build byte-identity check instead: two
# build trees of the same commit (scalar and SIMD tag-scan kernels)
# must emit byte-identical bench JSON.
#
# Exits non-zero on the first failing gate.  Requires the build dir to
# contain the bench executables (cmake --build <dir>).
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)

fail() {
    echo "bench_gates: $*" >&2
    exit 1
}

# ---------------------------------------------------------------- twin
if [ "${1:-}" = "--twin" ]; then
    [ $# -eq 3 ] || fail "--twin needs <scalar-build-dir> <simd-build-dir>"
    scalar=$(cd "$2" && pwd)
    simd=$(cd "$3" && pwd)
    echo "== gate: twin (cross-build byte identity) =="
    "$simd/bench_hotpath" --smoke \
        --json-out="$simd/BENCH_hotpath.json" > /dev/null
    cmp "$scalar/BENCH_hotpath.json" "$simd/BENCH_hotpath.json"
    "$scalar/bench_matrix" --smoke --threads=8 \
        --json-out="$scalar/BENCH_scenarios.json" > /dev/null
    "$simd/bench_matrix" --smoke --threads=8 \
        --json-out="$simd/BENCH_scenarios.json" > /dev/null
    cmp "$scalar/BENCH_scenarios.json" "$simd/BENCH_scenarios.json"
    echo "twin gate: scalar and SIMD builds byte-identical"
    exit 0
fi

# ------------------------------------------------------------- regular
[ $# -ge 1 ] || fail "usage: bench_gates.sh <build-dir> [gate...]"
build=$(cd "$1" && pwd)
shift
gates=("$@")
if [ ${#gates[@]} -eq 0 ]; then
    gates=(harness matrix hotpath scalar-flip e2e resume fullscale
           calib defense traffic)
fi

cd "$build" || fail "cannot enter build dir $build"

gate_harness() {
    ./bench_fig2 --threads=1 --trials=2 --json-out=fig2_t1.json \
        > /dev/null
    ./bench_fig2 --threads=8 --trials=2 --json-out=fig2_t8.json \
        > /dev/null
    cmp fig2_t1.json fig2_t8.json
    LLCF_WS_OFFSETS=2 ./bench_table4 --threads=1 --trials=1 \
        --json-out=t4_t1.json > /dev/null
    LLCF_WS_OFFSETS=2 ./bench_table4 --threads=8 --trials=1 \
        --json-out=t4_t8.json > /dev/null
    cmp t4_t1.json t4_t8.json
}

gate_matrix() {
    ./bench_matrix --list
    ./bench_matrix --smoke --threads=1 --json-out=scen_t1.json
    ./bench_matrix --smoke --threads=8 --json-out=scen_t8.json \
        > /dev/null
    cmp scen_t1.json scen_t8.json
    cp scen_t1.json BENCH_scenarios.json
    # Counter metrics obey the same 1-vs-8-thread contract.
    ./bench_matrix --smoke --counters --threads=1 \
        --scenario='build-bins-tiny-*' --json-out=scen_c1.json \
        > /dev/null
    ./bench_matrix --smoke --counters --threads=8 \
        --scenario='build-bins-tiny-*' --json-out=scen_c8.json \
        > /dev/null
    cmp scen_c1.json scen_c8.json
    # A selection that matches nothing must fail, not write an empty
    # suite that looks like a passing run.
    if ./bench_matrix --scenario=, --json-out=empty.json; then
        fail "empty scenario selection unexpectedly succeeded"
    fi
    if ./bench_matrix --scenario=definitely-missing; then
        fail "unknown scenario unexpectedly succeeded"
    fi
}

gate_hotpath() {
    ./bench_hotpath --smoke --json-out=BENCH_hotpath.json \
        --baseline="$repo_root/BENCH_hotpath.json"
}

gate_scalar_flip() {
    # Same binary, scalar tag-scan kernel forced at startup: every
    # simulated byte must match the vectorized runs.
    [ -f BENCH_hotpath.json ] || gate_hotpath
    [ -f BENCH_scenarios.json ] || \
        ./bench_matrix --smoke --threads=8 \
            --json-out=BENCH_scenarios.json > /dev/null
    LLCF_SCALAR_TAGS=1 ./bench_hotpath --smoke \
        --json-out=hotpath_scalar.json > /dev/null
    cmp BENCH_hotpath.json hotpath_scalar.json
    LLCF_SCALAR_TAGS=1 ./bench_matrix --smoke --threads=8 \
        --json-out=scen_scalar.json > /dev/null
    cmp BENCH_scenarios.json scen_scalar.json
}

gate_resume() {
    # A 66-victim forked fleet spans two shards.  Interrupt after the
    # first shard at 8 threads (exit code 3 by contract) ...
    rc=0
    ./bench_e2e --scenario=campaign-fork-tiny-silent-96 \
        --trials=66 --threads=8 --checkpoint=cp_resume.json \
        --stop-after-shards=1 || rc=$?
    [ "$rc" -eq 3 ] || fail "interrupt exit code $rc, expected 3"
    [ -f cp_resume.json ] || fail "no checkpoint written"
    # ... resume at 1 thread, and demand the same bytes as an
    # uninterrupted run at yet another thread count.
    ./bench_e2e --scenario=campaign-fork-tiny-silent-96 \
        --trials=66 --threads=1 --checkpoint=cp_resume.json \
        --resume --json-out=e2e_resumed.json > /dev/null
    ./bench_e2e --scenario=campaign-fork-tiny-silent-96 \
        --trials=66 --threads=8 --json-out=e2e_whole.json > /dev/null
    cmp e2e_resumed.json e2e_whole.json
    # A malformed shard count is a usage error, never a full run.
    rc=0
    ./bench_e2e --scenario=campaign-fork-tiny-silent-96 \
        --trials=66 --checkpoint=cp_bad.json \
        --stop-after-shards=abc || rc=$?
    [ "$rc" -eq 2 ] || fail "bad shard count exit code $rc, expected 2"
}

gate_fullscale() {
    # The committed BENCH_fullscale.json comes from a 2,000-victim
    # run of the 100k spec; its gate bands are per-victim rates and
    # cycle means, so a 200-victim fleet of the same spec must sit
    # inside them (as must the nightly true 10^5 fleet).
    ./bench_e2e --full-scale --trials=200 --threads=8 \
        --json-out=fullscale_ci.json \
        --baseline="$repo_root/BENCH_fullscale.json"
}

# The registry suite benches share one driver, so one gate shape: the
# suite's bands and invariants against its committed baseline on the
# 1-thread run, byte identity at 8 threads, and a must-fail selection.
gate_suite() {
    local bench=bench_$1
    "./$bench" --list
    "./$bench" --smoke --threads=1 --json-out="BENCH_$1.json" \
        --baseline="$repo_root/BENCH_$1.json"
    "./$bench" --smoke --threads=8 --json-out="$1_t8.json" > /dev/null
    cmp "BENCH_$1.json" "$1_t8.json"
    if "./$bench" --scenario=definitely-missing; then
        fail "$bench: unknown scenario unexpectedly succeeded"
    fi
}

for gate in "${gates[@]}"; do
    echo "== gate: $gate =="
    case "$gate" in
      harness) gate_harness ;;
      matrix) gate_matrix ;;
      hotpath) gate_hotpath ;;
      scalar-flip) gate_scalar_flip ;;
      resume) gate_resume ;;
      fullscale) gate_fullscale ;;
      e2e|calib|defense|traffic) gate_suite "$gate" ;;
      *) fail "unknown gate '$gate'" ;;
    esac
done
echo "bench_gates: all gates passed (${gates[*]})"
