#!/usr/bin/env bash
# check.sh — the full CI gate, one command (`make check`). Every stage is
# a Makefile target, defined there and nowhere else; this script is their
# order, fail-fast, with optional timings. Stages (race runs the bubbles too):
#
#    1 fmt-check     2 vet           3 build         4 lint
#    5 test          6 race          7 delivery-race 8 trace-smoke
#    9 fuzz-smoke   10 bench-smoke  11 conform      12 report-smoke
#   13 spec-smoke   14 bench-harness
#
# FUZZTIME (default 5s) is the budget per fuzz target. CHECK_TIMINGS=1
# prints each stage's wall time as it completes.
set -euo pipefail
cd "$(dirname "$0")/.."

for stage in fmt-check vet build lint test race delivery-race trace-smoke fuzz-smoke \
    bench-smoke conform report-smoke spec-smoke bench-harness; do
    printf '\n== %s ==\n' "$stage"
    start="$(date +%s)"
    make --no-print-directory "$stage" FUZZTIME="${FUZZTIME:-5s}"
    if [ "${CHECK_TIMINGS:-0}" = "1" ]; then
        printf -- '-- %s: %ds\n' "$stage" "$(( $(date +%s) - start ))"
    fi
done
printf '\ncheck: all stages passed\n'
