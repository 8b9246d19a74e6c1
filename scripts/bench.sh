#!/usr/bin/env bash
# bench.sh — short kernel benchmark sweeps, machine-readable. Whole-join
# numbers come from benchmark/ (bash benchmark/run.sh), not from here.
#
# Two modes:
#
#   ./scripts/bench.sh kernels [out.json]   # kernel layer -> BENCH_3.json
#   ./scripts/bench.sh -compare BENCH.json  # kernel sweep vs recorded JSON
#
# The kernels mode runs the BenchmarkKernel* microbenchmarks of
# internal/radix, internal/hashtable and internal/core — partition (rehash
# / swwcb), partition_build (unfused / fused), build (scalar / batched),
# probe (scalar / batched), sink_count and sink_emit (match / run: the
# match sink's single-match entry against its run form, counting only and
# materializing) — and writes per-variant results plus the speedup of
# every variant over its kernel's baseline (rehash for partition, unfused
# for partition_build, match for the sink rows, scalar elsewhere). See
# PERFORMANCE.md for how to read BENCH_3.json.
#
# Sweeps are intentionally short (BENCHTIME defaults to 100x): regression
# tripwires and JSON schema anchors, not rigorous measurements — raise
# BENCHTIME for one.
#
# The -compare mode is the perf-regression gate (`make bench-gate`): it
# runs COMPARE_SWEEPS fresh kernel sweeps (default 2) at the recorded
# file's benchtime and checks every variant's best (minimum) in-sweep
# ratio to its kernel's baseline (e.g. swwcb ns / rehash ns) against
# the same ratio in the recorded file, exiting 1 if even the best
# observed ratio grew by more than TOLERANCE_PCT percent (default 10)
# or a recorded variant vanished. Two noise defenses, both needed on a
# shared virtualized host: (1) ratios, not absolute ns/op, are the
# gated quantity — absolute timings drift 15-25% between sweeps with
# machine load, while variant and baseline measured seconds apart in
# one sweep share that load (the bracketed A/B PERFORMANCE.md documents
# as the only trustworthy comparison here); (2) the minimum ratio
# across sweeps is the compared value — noise only ever adds time, so
# a load spike inflates one sweep's ratio but rarely every sweep's
# (the same min-of-reps principle CalibrateProbePrefetch uses).
# Baseline rows themselves (and absolute drift generally) are reported
# for context, never failed. New variants with no recorded value are
# reported, not failed; recorded variants that vanish are fatal.
set -euo pipefail
cd "$(dirname "$0")/.."

# Environment metadata stamped into every JSON (and checked by -compare):
# ns/op from one machine is meaningless against another, so downstream
# consumers need enough identity to flag cross-machine comparisons.
GO_VERSION="$(go env GOVERSION)"
NUM_CPU="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
GOMAXPROCS_VAL="${GOMAXPROCS:-$NUM_CPU}"

if [ "${1:-}" = "-compare" ]; then
    BASE="${2:-}"
    if [ -z "$BASE" ]; then
        echo "bench.sh: -compare needs a recorded BENCH json (e.g. BENCH_3.json)" >&2
        exit 2
    fi
    if [ ! -f "$BASE" ]; then
        echo "bench.sh: recorded baseline $BASE not found" >&2
        exit 2
    fi
    # Flag a recorded baseline from another environment: its deltas are
    # reported as usual but a slower machine is not a slower kernel.
    base_go="$(sed -n 's/.*"go_version": "\([^"]*\)".*/\1/p' "$BASE" | head -1)"
    base_cpus="$(sed -n 's/.*"num_cpu": \([0-9]*\).*/\1/p' "$BASE" | head -1)"
    if [ -n "$base_go" ] && { [ "$base_go" != "$GO_VERSION" ] || [ "${base_cpus:-0}" != "$NUM_CPU" ]; }; then
        echo "bench.sh: warning: cross-machine comparison — baseline recorded on $base_go/${base_cpus:-?} cpus, running on $GO_VERSION/$NUM_CPU cpus; deltas below are flagged, not trusted" >&2
    fi
    SWEEPS="${COMPARE_SWEEPS:-2}"
    base_bt="$(sed -n 's/.*"benchtime": "\([^"]*\)".*/\1/p' "$BASE" | head -1)"
    curfiles=()
    trap 'rm -f "${curfiles[@]}"' EXIT
    for ((s = 1; s <= SWEEPS; s++)); do
        cur="$(mktemp /tmp/iawj-bench-compare.XXXXXX.json)"
        curfiles+=("$cur")
        echo "bench.sh: fresh sweep $s/$SWEEPS (benchtime ${base_bt:-100x})"
        BENCHTIME="${base_bt:-100x}" bash scripts/bench.sh kernels "$cur" >/dev/null
    done
    awk -v tol="${TOLERANCE_PCT:-10}" '
    # parse pulls kern, id ("kernel/variant") and ns (ns_per_op) out of
    # one results line; both files use the line-parseable
    # one-object-per-line layout the kernels mode emits.
    function parse(line,    k, v, n) {
        k = line; sub(/.*"kernel": "/, "", k); sub(/".*/, "", k)
        v = line; sub(/.*"variant": "/, "", v); sub(/".*/, "", v)
        n = line; sub(/.*"ns_per_op": /, "", n); sub(/[,}].*/, "", n)
        kern = k; id = k "/" v; ns = n + 0
    }
    BEGIN {
        # Must mirror the baseline map of the kernels mode below.
        base["partition"] = "rehash"
        base["partition_build"] = "unfused"
        base["build"] = "scalar"
        base["probe"] = "scalar"
        base["sink_count"] = "match"
        base["sink_emit"] = "match"
    }
    FNR == 1 { fi++ }
    $0 !~ /"kernel"/ { next }
    fi == 1 { parse($0); old[id] = ns; kof[id] = kern; next }
    {
        parse($0)
        cur[fi, id] = ns
        kof[id] = kern
        if (!(id in seencur)) { seencur[id] = 1; order[no++] = id }
        if (!(id in curmin) || ns < curmin[id]) curmin[id] = ns
    }
    END {
        nsweeps = fi - 1
        for (i = 0; i < no; i++) {
            id = order[i]
            if (!(id in old)) {
                printf "bench.sh: %-22s NEW       %12.0f ns/op (no recorded value)\n", id, curmin[id]
                continue
            }
            seen[id] = 1
            k = kof[id]; bid = k "/" base[k]
            drift = (curmin[id] - old[id]) * 100.0 / old[id]
            if (base[k] == "" || id == bid || !(bid in old)) {
                # Baseline rows gate nothing: absolute ns/op tracks host
                # load, not kernel quality. Shown for context only
                # (min across sweeps vs the recording).
                printf "bench.sh: %-22s drift     %12.0f -> %.0f ns/op (%+.1f%%)\n", id, old[id], curmin[id], drift
                continue
            }
            # Best (minimum) in-sweep ratio across the fresh sweeps;
            # ratios never mix values from different sweeps.
            curr = -1
            for (s = 2; s <= fi; s++) {
                if (!((s, id) in cur) || !((s, bid) in cur)) continue
                r = cur[s, id] / cur[s, bid]
                if (curr < 0 || r < curr) curr = r
            }
            if (curr < 0) {
                printf "bench.sh: %-22s MISSING   recorded variant produced no result\n", id
                bad++
                continue
            }
            oldr = old[id] / old[bid]
            delta = (curr - oldr) * 100.0 / oldr
            verdict = "ok"
            if (delta > tol) { verdict = "REGRESSED"; bad++ }
            printf "bench.sh: %-22s %-9s ratio vs %s %.3f -> %.3f (%+.1f%%; best of %d sweeps)\n", \
                id, verdict, base[k], oldr, curr, delta, nsweeps
        }
        for (id in old) if (!(id in seen)) {
            printf "bench.sh: %-22s MISSING   recorded variant produced no result\n", id
            bad++
        }
        if (bad > 0) {
            printf "bench.sh: %d kernel variant(s) regressed past %d%%\n", bad, tol > "/dev/stderr"
            exit 1
        }
        printf "bench.sh: no kernel regression past %d%% (best in-sweep ratio of %d sweeps)\n", tol, nsweeps
    }' "$BASE" "${curfiles[@]}"
    exit 0
fi

if [ "${1:-}" != "kernels" ]; then
    echo "usage: bench.sh kernels [out.json] | bench.sh -compare BENCH.json" >&2
    exit 2
fi
shift

OUT="${1:-BENCH_3.json}"
BENCHTIME="${BENCHTIME:-100x}"

raw="$(go test -run '^$' -bench '^BenchmarkKernel' -benchtime="$BENCHTIME" \
    ./internal/radix ./internal/hashtable ./internal/core)"

echo "$raw" | awk -v benchtime="$BENCHTIME" \
    -v go_version="$GO_VERSION" -v num_cpu="$NUM_CPU" -v gomaxprocs="$GOMAXPROCS_VAL" '
BEGIN { n = 0 }
/^goos:/    { goos = $2 }
/^goarch:/  { goarch = $2 }
/^cpu:/     { sub(/^cpu: /, ""); cpu = $0 }
/^BenchmarkKernel[A-Za-z]+\// {
    # BenchmarkKernelPartition/swwcb-8  100  123456 ns/op  1234.56 MB/s
    split($1, parts, "/")
    sub(/^BenchmarkKernel/, "", parts[1])
    sub(/-[0-9]+$/, "", parts[2])
    kern[n] = tolower(parts[1])
    # CamelCase benchmark names flatten under tolower; restore the
    # word break for multi-word kernels.
    if (kern[n] == "partitionbuild") kern[n] = "partition_build"
    variant[n] = parts[2]
    # BenchmarkKernelSink{Match,Run}/{count,emit}: the mode names the
    # kernel and the entry point is the variant, so that run is gated
    # against match within a mode.
    if (kern[n] ~ /^sink/) {
        variant[n] = substr(kern[n], 5)
        kern[n] = "sink_" parts[2]
    }
    nsop[n] = ""; mbs[n] = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") nsop[n] = $i
        if ($(i+1) == "MB/s")  mbs[n] = $i
    }
    ns[kern[n] "/" variant[n]] = nsop[n]
    n++
}
END {
    if (n == 0) { print "bench.sh: no BenchmarkKernel results parsed" > "/dev/stderr"; exit 1 }
    base["partition"] = "rehash"
    base["partition_build"] = "unfused"
    base["build"] = "scalar"
    base["probe"] = "scalar"
    base["sink_count"] = "match"
    base["sink_emit"] = "match"
    printf "{\n"
    printf "  \"schema\": \"iawj-kernelbench/v1\",\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"go_version\": \"%s\",\n", go_version
    printf "  \"num_cpu\": %d,\n", num_cpu
    printf "  \"gomaxprocs\": %d,\n", gomaxprocs
    printf "  \"results\": [\n"
    for (i = 0; i < n; i++) {
        printf "    {\"kernel\": \"%s\", \"variant\": \"%s\", \"ns_per_op\": %s, \"mb_per_s\": %s}%s\n", \
            kern[i], variant[i], nsop[i], (mbs[i] == "" ? "null" : mbs[i]), (i < n-1 ? "," : "")
    }
    printf "  ],\n"
    printf "  \"speedup_vs_baseline\": {\n"
    m = 0
    for (i = 0; i < n; i++) {
        b = base[kern[i]]
        if (b == "" || variant[i] == b) continue
        if (ns[kern[i] "/" b] == "" || nsop[i] == 0) continue
        sp[m] = sprintf("    \"%s_%s\": %.3f", kern[i], variant[i], ns[kern[i] "/" b] / nsop[i])
        m++
    }
    for (i = 0; i < m; i++) printf "%s%s\n", sp[i], (i < m-1 ? "," : "")
    printf "  }\n"
    printf "}\n"
}' > "$OUT"

count="$(grep -c '"kernel"' "$OUT")"
echo "bench.sh: wrote $OUT ($count kernel variants)"
