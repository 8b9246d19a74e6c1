#!/usr/bin/env bash
# bench.sh — the kernel microbenchmark sweeps (BenchmarkKernel* of
# internal/radix, internal/hashtable, internal/core and internal/sortmerge). This script only
# runs `go test`; cmd/iawjinspect turns the output into the BENCH_3.json
# form and owns the gate's rule (internal/report/kernels.go). Whole-join
# numbers come from benchmark/ (bash benchmark/run.sh), not from here.
#
#   ./scripts/bench.sh kernels [out.json]   # one sweep -> BENCH_3.json
#   ./scripts/bench.sh -compare BENCH.json  # COMPARE_SWEEPS (default 2) fresh
#                                           # sweeps gated against the recording
#
# BENCHTIME defaults to 300x, the recorded file's; a sweep is a regression
# tripwire and a schema anchor, not a rigorous measurement.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-300x}"
sweep() {
    go test -run '^$' -bench '^BenchmarkKernel' -benchtime="$BENCHTIME" \
        ./internal/radix ./internal/hashtable ./internal/core ./internal/sortmerge
}

case "${1:-}" in
kernels)
    out="${2:-BENCH_3.json}"
    sweep | go run ./cmd/iawjinspect > "$out.tmp"
    mv "$out.tmp" "$out"
    echo "bench.sh: wrote $out ($(grep -c '"kernel"' "$out") kernel variants)"
    ;;
-compare)
    base="${2:?bench.sh: -compare needs a recorded BENCH json (e.g. BENCH_3.json)}"
    sweeps="${COMPARE_SWEEPS:-2}"
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' EXIT
    for ((s = 1; s <= sweeps; s++)); do
        echo "bench.sh: fresh sweep $s/$sweeps (benchtime $BENCHTIME)"
        sweep > "$dir/sweep$s.txt"
    done
    go run ./cmd/iawjinspect "$base" "$dir"/sweep*.txt
    ;;
*)
    echo "usage: bench.sh kernels [out.json] | bench.sh -compare BENCH.json" >&2
    exit 2
    ;;
esac
