#!/usr/bin/env bash
# check.sh — the full CI gate, one command (`make check`). Every stage is
# a Makefile target, defined there and nowhere else; this script is their
# order, fail-fast, with optional timings. Stages:
#
#    1 fmt-check     2 vet           3 build        4 lint
#    5 test          6 race          7 trace-smoke  8 fuzz-smoke
#    9 bench-smoke  10 conform      11 report-smoke 12 load-smoke
#   13 bench-harness
#
# FUZZTIME (default 5s) is the budget per fuzz target. CHECK_TIMINGS=1
# prints each stage's wall time as it completes.
set -euo pipefail
cd "$(dirname "$0")/.."

for stage in fmt-check vet build lint test race trace-smoke fuzz-smoke \
    bench-smoke conform report-smoke load-smoke bench-harness; do
    printf '\n== %s ==\n' "$stage"
    start="$(date +%s)"
    make --no-print-directory "$stage" FUZZTIME="${FUZZTIME:-5s}"
    if [ "${CHECK_TIMINGS:-0}" = "1" ]; then
        printf -- '-- %s: %ds\n' "$stage" "$(( $(date +%s) - start ))"
    fi
done
printf '\ncheck: all stages passed\n'
