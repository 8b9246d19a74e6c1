# Makefile — entry points for the CI gate and its individual stages.
# `make check` is the whole gate (scripts/check.sh); the other targets run
# one stage each for fast local iteration. See LINTING.md for the lint
# rules and escape hatches.

GO ?= go
FUZZTIME ?= 5s

.PHONY: check build test lint race trace-smoke bench-kernels bench-smoke bench-gate bench-harness fuzz-smoke conform conform-full report-smoke load-smoke fmt loc

## check: run the full CI gate (fmt, vet, build, lint, test, race, fuzz)
check:
	FUZZTIME=$(FUZZTIME) ./scripts/check.sh

## build: compile every package
build:
	$(GO) build ./...

## test: tier-1 verify
test:
	$(GO) test ./...

## lint: repo-specific static analysis, every rule incl. the three build
## gates; one rule is `go run ./cmd/iawjlint -rules <name> ./...`
lint:
	$(GO) run ./cmd/iawjlint ./...

## race: full test suite under the race detector
race:
	$(GO) test -race ./...

## trace-smoke: tiny benchmark with -trace, validate spans for every phase
trace-smoke:
	$(GO) run ./cmd/iawjbench -exp fig7 -scale 0.01 -spancap 65536 -trace /tmp/iawj-trace-smoke.json >/dev/null
	$(GO) run ./cmd/iawjtrace -q -want "wait,partition,build/sort,merge,probe,others" /tmp/iawj-trace-smoke.json
	rm -f /tmp/iawj-trace-smoke.json

## bench-kernels: kernel-layer sweep (partition/partition_build/build/probe/sink),
## writes BENCH_3.json; 300 iterations per variant for recordable numbers
bench-kernels:
	BENCHTIME=$${BENCHTIME:-300x} ./scripts/bench.sh kernels

## bench-smoke: every kernel microbenchmark once, under the race detector
bench-smoke:
	$(GO) test -race -run '^$$' -bench '^BenchmarkKernel' -benchtime=1x ./internal/radix ./internal/hashtable ./internal/core

## bench-gate: kernel sweep vs recorded BENCH_3.json, exit 1 on >10% regression
bench-gate:
	./scripts/bench.sh -compare BENCH_3.json

## bench-harness: vet and test the benchmark/ module (own go.mod, skipped by ./...)
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

## fuzz-smoke: short fuzz run on the gen/ingest parsers, the workload
## profile (differential against its map-and-sort reference) + conformance
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=$(FUZZTIME) ./internal/gen
	$(GO) test -run='^$$' -fuzz='^FuzzSummarize$$' -fuzztime=$(FUZZTIME) ./internal/tuple
	$(GO) test -run='^$$' -fuzz='^FuzzReadStream$$' -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run='^$$' -fuzz='^FuzzReadBinary$$' -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run='^$$' -fuzz='^FuzzConformance$$' -fuzztime=$(FUZZTIME) ./internal/oracle

## conform: conformance smoke matrix under the race detector (see TESTING.md)
conform:
	$(GO) run -race ./cmd/iawjconform -smoke

## conform-full: the full differential + metamorphic conformance sweep
conform-full:
	$(GO) run ./cmd/iawjconform

## report-smoke: windowed two-algorithm sweep -> journal -> iawjreport self-compare
report-smoke:
	rm -f /tmp/iawj-report-smoke.jsonl
	$(GO) run ./cmd/iawjjoin -workload Stock -scale 0.002 -atrest -algorithm NPJ -windowms 50 -journal /tmp/iawj-report-smoke.jsonl >/dev/null
	$(GO) run ./cmd/iawjjoin -workload Stock -scale 0.002 -atrest -algorithm SHJ_JM -windowms 50 -journal /tmp/iawj-report-smoke.jsonl >/dev/null
	$(GO) run ./cmd/iawjreport -self /tmp/iawj-report-smoke.jsonl
	rm -f /tmp/iawj-report-smoke.jsonl

## load-smoke: validate every checked-in workload spec, then a short
## open-loop run of the mixed spec with per-class journal records
load-smoke:
	for spec in examples/specs/*.json; do \
		$(GO) run ./cmd/iawjload -spec $$spec -validate >/dev/null || exit 1; \
	done
	rm -f /tmp/iawj-load-smoke.jsonl
	$(GO) run ./cmd/iawjload -spec examples/specs/mixed.json -nspms 1000000 -algorithm SHJ_JM -journal /tmp/iawj-load-smoke.jsonl >/dev/null
	$(GO) run ./cmd/iawjreport -self /tmp/iawj-load-smoke.jsonl
	rm -f /tmp/iawj-load-smoke.jsonl

## fmt: apply gofmt to the tree
fmt:
	gofmt -w .

## loc: the two size numbers every PR reports in CHANGES.md — non-test Go
## lines of the root module (benchmark/, .bench_build/ and lint fixtures
## excluded) and its exported top-level names (funcs, methods, types, and
## vars/consts incl. grouped ones)
LOC_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' ! -path './internal/lint/testdata/*' -print0
loc:
	@printf 'non-test Go LOC:      %d\n' $$($(LOC_FILES) | xargs -0 cat | wc -l)
	@printf 'exported identifiers: %d\n' $$($(LOC_FILES) | xargs -0 awk ' \
		/^(const|var) \($$/ {blk=1; next} /^\)/ {blk=0} \
		/^func (\([^)]*\) )?[A-Z]/ || /^type [A-Z]/ || /^(var|const) [A-Z]/ || (blk && /^\t[A-Z][A-Za-z0-9_]*( |,|$$)/) {n++} \
		END {print n}')
