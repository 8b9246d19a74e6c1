# Makefile — every stage of the CI gate is a target here, defined once.
# `make check` runs them all in order (scripts/check.sh is only the list
# and the fail-fast loop); each target also runs alone for fast local
# iteration. See LINTING.md for the lint rules and escape hatches.

GO ?= go
FUZZTIME ?= 5s
INSPECT = $(GO) run ./cmd/iawjinspect
# Scratch files of the smoke stages; removed by the stage that made them.
SMOKE = /tmp/iawj-smoke

.PHONY: check fmt-check vet build test lint race trace-smoke bench-kernels bench-smoke bench-gate bench-harness fuzz-smoke conform conform-full report-smoke load-smoke fmt loc

## check: run the full CI gate, 13 stages (see scripts/check.sh for the order)
check:
	FUZZTIME=$(FUZZTIME) ./scripts/check.sh

## fmt-check: formatting drift fails fast
fmt-check:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needs to be run on:" >&2; echo "$$unformatted" >&2; exit 1; fi

## vet: stdlib static analysis
vet:
	$(GO) vet ./...

## build: compile every package
build:
	$(GO) build ./...

## lint: repo-specific static analysis, every rule incl. the three build
## gates (one shared `go build -gcflags=-m=2 -d=ssa/check_bce/debug=1`
## anchored to //iawj:hotpath and //iawj:inline spans); one rule is
## `go run ./cmd/iawjlint -rules <name> ./...`
lint:
	$(GO) run ./cmd/iawjlint ./...

## test: tier-1 verify
test:
	$(GO) test ./...

## race: full test suite under the race detector, incl. the eager stress test
race:
	$(GO) test -race ./...

## trace-smoke: a scaled-down fig7 sweep with -trace and -journal must yield
## a valid Chrome trace with spans for all six phases and a journal that parses
trace-smoke:
	rm -f $(SMOKE)-trace.json $(SMOKE)-runs.jsonl
	$(GO) run ./cmd/iawjbench -exp fig7 -scale 0.01 -spancap 65536 -trace $(SMOKE)-trace.json -journal $(SMOKE)-runs.jsonl >/dev/null
	$(INSPECT) -want "wait,partition,build/sort,merge,probe,others" $(SMOKE)-trace.json >/dev/null
	$(INSPECT) $(SMOKE)-runs.jsonl
	rm -f $(SMOKE)-trace.json $(SMOKE)-runs.jsonl

## fuzz-smoke: FUZZTIME per fuzz target — the gen/ingest parsers, the kernel
## differential fuzzers, the workload profile against its map-and-sort
## reference, and the whole-join conformance fuzzer
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=$(FUZZTIME) ./internal/gen
	$(GO) test -run='^$$' -fuzz='^FuzzReadStream$$' -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run='^$$' -fuzz='^FuzzReadBinary$$' -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run='^$$' -fuzz='^FuzzSummarize$$' -fuzztime=$(FUZZTIME) ./internal/tuple
	$(GO) test -run='^$$' -fuzz='^FuzzPartitionerDiff$$' -fuzztime=$(FUZZTIME) ./internal/radix
	$(GO) test -run='^$$' -fuzz='^FuzzBatchDiff$$' -fuzztime=$(FUZZTIME) ./internal/hashtable
	$(GO) test -run='^$$' -fuzz='^FuzzConformance$$' -fuzztime=$(FUZZTIME) ./internal/oracle

## bench-smoke: every kernel microbenchmark once under the race detector, so
## the batched kernels stay runnable and race-clean without a measurement;
## the checked-in BENCH_3.json must parse and record no variant below 1.0x
## of its baseline (re-record with `make bench-kernels` after a kernel change)
bench-smoke:
	$(GO) test -race -run '^$$' -bench '^BenchmarkKernel' -benchtime=1x ./internal/radix ./internal/hashtable ./internal/core
	$(INSPECT) BENCH_3.json

## bench-kernels: kernel-layer sweep (partition/partition_build/build/probe/sink),
## writes BENCH_3.json; 300 iterations per variant
bench-kernels:
	./scripts/bench.sh kernels

## bench-gate: fresh kernel sweeps vs recorded BENCH_3.json, exit 1 when a
## variant's best ratio to its baseline grew >10% (internal/report/kernels.go)
bench-gate:
	./scripts/bench.sh -compare BENCH_3.json

## bench-harness: vet and test the benchmark/ module — its own go.mod, which
## the root ./... patterns skip, compiling against internal/ and the windowed
## driver; tier-1 must notice a break there before a benchmark run does
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

## conform: conformance smoke matrix under the race detector — all 8
## algorithms x threads x workloads x schedule perturbations vs the reference
## oracle, plus the metamorphic checks (see TESTING.md)
conform:
	$(GO) run -race ./cmd/iawjconform -smoke

## conform-full: the full differential + metamorphic conformance sweep
conform-full:
	$(GO) run ./cmd/iawjconform

## report-smoke: a two-algorithm windowed sweep appends window records to one
## journal; it must hold both algorithms' records and parse
report-smoke:
	rm -f $(SMOKE)-ledger.jsonl
	for alg in NPJ SHJ_JM; do \
		$(GO) run ./cmd/iawjjoin -workload Stock -scale 0.002 -atrest -algorithm $$alg -windowms 50 -journal $(SMOKE)-ledger.jsonl >/dev/null || exit 1; \
	done
	test "$$(grep -c '"kind":"window"' $(SMOKE)-ledger.jsonl)" -ge 2
	$(INSPECT) $(SMOKE)-ledger.jsonl
	rm -f $(SMOKE)-ledger.jsonl

## load-smoke: every checked-in workload spec must compile, then a short
## open-loop run of the mixed spec whose journal must carry the per-class
## openloop/* run records (WORKLOADS.md)
load-smoke:
	for spec in examples/specs/*.json; do $(INSPECT) $$spec || exit 1; done
	rm -f $(SMOKE)-load.jsonl
	$(GO) run ./cmd/iawjload -spec examples/specs/mixed.json -nspms 1000000 -algorithm SHJ_JM -journal $(SMOKE)-load.jsonl >/dev/null
	test "$$(grep -c '"algorithm":"openloop/' $(SMOKE)-load.jsonl)" -ge 2
	$(INSPECT) $(SMOKE)-load.jsonl
	rm -f $(SMOKE)-load.jsonl

## fmt: apply gofmt to the tree
fmt:
	gofmt -w .

## loc: the size numbers every PR reports in CHANGES.md — non-test Go lines
## of the root module (benchmark/, .bench_build/ and lint fixtures
## excluded), its exported top-level names (funcs, methods, types, and
## vars/consts incl. grouped ones), the binaries under cmd/, the lines of
## shell under scripts/ and the //lint:allow sites in that Go outside the
## linter itself (whose sources and docs spell the marker without using it)
LOC_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' ! -path './internal/lint/testdata/*' -print0
loc:
	@printf 'non-test Go LOC:      %d\n' $$($(LOC_FILES) | xargs -0 cat | wc -l)
	@printf 'exported identifiers: %d\n' $$($(LOC_FILES) | xargs -0 awk ' \
		/^(const|var) \($$/ {blk=1; next} /^\)/ {blk=0} \
		/^func (\([^)]*\) )?[A-Z]/ || /^type [A-Z]/ || /^(var|const) [A-Z]/ || (blk && /^\t[A-Z][A-Za-z0-9_]*( |,|$$)/) {n++} \
		END {print n}')
	@printf 'cmd/ binaries:        %d\n' $$(ls cmd | wc -l)
	@printf 'scripts/*.sh lines:   %d\n' $$(cat scripts/*.sh | wc -l)
	@printf 'lint:allow sites:     %d\n' $$($(LOC_FILES) | xargs -0 grep -c '//lint:allow' | grep -v -e '^./internal/lint/' -e '^./cmd/iawjlint/' | awk -F: '{n += $$NF} END {print n+0}')
