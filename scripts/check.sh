#!/usr/bin/env bash
# check.sh — the full CI gate, one command (`make check`).
#
# Stages, in dependency order:
#   1. gofmt        formatting drift fails fast
#   2. go vet       stdlib static analysis
#   3. go build     the tree compiles
#   4. iawjlint     every row of the rule table (LINTING.md) over the tree
#                   as one program: the per-package AST rules, the
#                   whole-program rules on one held-lock walk, and the
#                   three build gates — escapegate, bcegate, inlinegate —
#                   off one shared
#                   `go build -gcflags="-m=2 -d=ssa/check_bce/debug=1"`
#                   run whose escape, bounds-check, and inliner verdicts
#                   are anchored to //iawj:hotpath and //iawj:inline spans
#   5. go test      tier-1 verify
#   6. go test -race  concurrency correctness, incl. the eager stress test
#   7. trace smoke  a scaled-down fig7 sweep with -trace must yield valid
#                   Chrome trace JSON with spans for every phase
#   8. fuzz smoke   5s per existing fuzz target on the gen/ingest parsers
#                   plus the kernel differential fuzzers, the workload
#                   profile against its map-and-sort reference, and the
#                   whole-join conformance fuzzer
#   9. bench smoke  every BenchmarkKernel* microbenchmark runs once under
#                   the race detector, so the batched kernels stay
#                   runnable and race-clean without a full measurement;
#                   the checked-in BENCH_3.json must also parse and record
#                   no kernel variant below 1.0x of its baseline
#  10. conformance smoke  iawjconform -smoke under the race detector:
#                   the differential matrix (all 8 algorithms x threads x
#                   workloads x schedule perturbations vs the reference
#                   oracle) plus the metamorphic checks; see TESTING.md
#  11. report smoke a two-algorithm windowed sweep appends iawj-journal/v2
#                   window records to one journal; iawjreport -self on it
#                   must parse the ledger and exit 0 (a journal is never a
#                   regression against itself)
#  12. load smoke   iawjload -validate on every checked-in spec under
#                   examples/specs/, then a short open-loop run of the
#                   mixed multi-client spec whose journal must carry the
#                   per-class openloop/* run records (WORKLOADS.md)
#  13. bench harness  go vet + go test inside benchmark/ — its own module,
#                   which the root ./... patterns skip, compiling against
#                   internal/ APIs (ingest.ReadStream, sortmerge, core,
#                   window) and the windowed driver; tier-1 must notice a
#                   break there before a benchmark run does
#
# Any stage failing aborts the gate with a non-zero exit.
#
# CHECK_TIMINGS=1 prints each stage's wall time as it completes, for
# finding where the gate's minutes go.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-5s}"
CHECK_TIMINGS="${CHECK_TIMINGS:-0}"

stage_name=""
stage_start=0
stage_done() {
    if [ "$CHECK_TIMINGS" = "1" ] && [ -n "$stage_name" ]; then
        printf -- '-- %s: %ds\n' "$stage_name" "$(( $(date +%s) - stage_start ))"
    fi
}
step() {
    stage_done
    stage_name="$1"
    stage_start="$(date +%s)"
    printf '\n== %s ==\n' "$1"
}

step "gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needs to be run on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "ok"

step "go vet ./..."
go vet ./...

step "go build ./..."
go build ./...

step "iawjlint ./..."
go run ./cmd/iawjlint ./...

step "go test ./..."
go test ./...

step "go test -race ./..."
go test -race ./...

step "trace smoke (fig7 -trace, all six phases)"
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/iawjbench -exp fig7 -scale 0.01 -spancap 65536 \
    -trace "$tracedir/trace.json" -journal "$tracedir/runs.jsonl" >/dev/null
go run ./cmd/iawjtrace -q \
    -want "wait,partition,build/sort,merge,probe,others" "$tracedir/trace.json"
journal_lines="$(wc -l < "$tracedir/runs.jsonl")"
if [ "$journal_lines" -lt 1 ]; then
    echo "trace smoke: journal is empty" >&2
    exit 1
fi
echo "ok (journal: $journal_lines runs)"

step "fuzz smoke (${FUZZTIME} per target)"
go test -run='^$' -fuzz='^FuzzReadCSV$' -fuzztime="$FUZZTIME" ./internal/gen
go test -run='^$' -fuzz='^FuzzReadStream$' -fuzztime="$FUZZTIME" ./internal/ingest
go test -run='^$' -fuzz='^FuzzReadBinary$' -fuzztime="$FUZZTIME" ./internal/ingest
go test -run='^$' -fuzz='^FuzzSummarize$' -fuzztime="$FUZZTIME" ./internal/tuple
go test -run='^$' -fuzz='^FuzzPartitionerDiff$' -fuzztime="$FUZZTIME" ./internal/radix
go test -run='^$' -fuzz='^FuzzBatchDiff$' -fuzztime="$FUZZTIME" ./internal/hashtable
go test -run='^$' -fuzz='^FuzzConformance$' -fuzztime="$FUZZTIME" ./internal/oracle

step "bench smoke (kernel microbenchmarks, 1x under -race)"
go test -race -run '^$' -bench '^BenchmarkKernel' -benchtime=1x \
    ./internal/radix ./internal/hashtable ./internal/core
# The recorded kernel sweep must parse and show no batched kernel losing
# to its scalar baseline: every speedup_vs_baseline entry >= 1.0
# (PERFORMANCE.md §"Winning back the kernels"). Re-record with
# `make bench-kernels` after an intentional kernel change.
losing="$(jq -r '.speedup_vs_baseline | to_entries[]
    | select(.value < 1.0) | "\(.key)=\(.value)"' BENCH_3.json)"
if [ -n "$losing" ]; then
    echo "BENCH_3.json records kernels losing to their baseline:" >&2
    echo "$losing" >&2
    exit 1
fi
echo "ok (BENCH_3.json: no kernel below 1.0x)"

step "conformance smoke (iawjconform -smoke under -race)"
go run -race ./cmd/iawjconform -smoke

step "report smoke (windowed journal -> iawjreport -self)"
ledger="$tracedir/ledger.jsonl"
for alg in NPJ SHJ_JM; do
    go run ./cmd/iawjjoin -workload Stock -scale 0.002 -atrest \
        -algorithm "$alg" -windowms 50 -journal "$ledger" >/dev/null
done
window_lines="$(grep -c '"kind":"window"' "$ledger")"
if [ "$window_lines" -lt 2 ]; then
    echo "report smoke: expected window records from both algorithms, got $window_lines" >&2
    exit 1
fi
go run ./cmd/iawjreport -self "$ledger" >/dev/null
echo "ok (ledger: $window_lines window records, self-compare clean)"

step "load smoke (iawjload -validate + open-loop run)"
for spec in examples/specs/*.json; do
    go run ./cmd/iawjload -spec "$spec" -validate >/dev/null
done
loadledger="$tracedir/load.jsonl"
go run ./cmd/iawjload -spec examples/specs/mixed.json -nspms 1000000 \
    -algorithm SHJ_JM -journal "$loadledger" >/dev/null
class_lines="$(grep -c '"algorithm":"openloop/' "$loadledger")"
if [ "$class_lines" -lt 2 ]; then
    echo "load smoke: expected per-class openloop run records, got $class_lines" >&2
    exit 1
fi
go run ./cmd/iawjreport -self "$loadledger" >/dev/null
echo "ok ($(ls examples/specs/*.json | wc -l) specs validated, $class_lines class records, self-compare clean)"

step "bench harness (go vet + go test in benchmark/)"
(cd benchmark && go vet ./... && go test ./...)

stage_done
printf '\ncheck: all stages passed\n'
