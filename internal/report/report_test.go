package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
)

func runEntry(alg string, tpm float64, p95 int64, phaseNs map[string]int64) trace.JournalEntry {
	return trace.JournalEntry{
		Schema:        trace.JournalSchema,
		Kind:          "run",
		Algorithm:     alg,
		Threads:       4,
		Inputs:        1000,
		Matches:       500,
		ThroughputTPM: tpm,
		LatencyP50Ms:  p95 / 2,
		LatencyP95Ms:  p95,
		LatencyP99Ms:  p95 + 1,
		PhaseNs:       phaseNs,
	}
}

func windowEntry(alg string, id int, tpm float64) trace.JournalEntry {
	e := runEntry(alg, tpm, 8, nil)
	e.Kind = "window"
	e.Window = &trace.WindowInfo{ID: id, StartMs: int64(id) * 100, EndMs: int64(id+1) * 100}
	return e
}

func TestCompareSelfIsClean(t *testing.T) {
	j := trace.Journal{Runs: []trace.JournalEntry{
		runEntry("NPJ", 100, 8, map[string]int64{"probe": 5_000_000}),
		runEntry("SHJ_JM", 120, 6, map[string]int64{"probe": 4_000_000}),
	}}
	rep := Compare(j, j, Options{})
	if rep.Failed {
		t.Fatalf("self-compare failed: %+v", rep.regressions())
	}
	if len(rep.regressions()) != 0 {
		t.Errorf("self-compare found regressions: %+v", rep.regressions())
	}
}

// TestCompareSeededThroughputRegression is the acceptance scenario: a 2x
// throughput drop must fail the report and the regression must name the
// algorithm and the metric.
func TestCompareSeededThroughputRegression(t *testing.T) {
	base := trace.Journal{Runs: []trace.JournalEntry{
		runEntry("NPJ", 200, 8, map[string]int64{"probe": 5_000_000}),
		runEntry("SHJ_JM", 120, 6, map[string]int64{"probe": 4_000_000}),
	}}
	cur := trace.Journal{Runs: []trace.JournalEntry{
		runEntry("NPJ", 100, 8, map[string]int64{"probe": 5_000_000}), // 2x slower
		runEntry("SHJ_JM", 121, 6, map[string]int64{"probe": 4_000_000}),
	}}
	rep := Compare(base, cur, Options{})
	if !rep.Failed {
		t.Fatal("2x throughput drop did not fail the report")
	}
	regs := rep.regressions()
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
	r := regs[0]
	if r.Algorithm != "NPJ" || r.Metric != "throughput_tuples_per_ms" {
		t.Errorf("regression = %s/%s, want NPJ/throughput_tuples_per_ms", r.Algorithm, r.Metric)
	}
	if r.DeltaPct < 49 || r.DeltaPct > 51 {
		t.Errorf("delta = %.1f%%, want ~50%% (signed positive = worse)", r.DeltaPct)
	}
	// Regressions sort first in Deltas.
	if len(rep.Deltas) == 0 || !rep.Deltas[0].Regressed {
		t.Errorf("regressions not sorted first: %+v", rep.Deltas[0])
	}
}

func TestComparePhaseRegressionNamesPhase(t *testing.T) {
	base := trace.Journal{Runs: []trace.JournalEntry{
		runEntry("PRJ", 100, 8, map[string]int64{"partition": 10_000_000, "probe": 5_000_000}),
	}}
	cur := trace.Journal{Runs: []trace.JournalEntry{
		runEntry("PRJ", 100, 8, map[string]int64{"partition": 30_000_000, "probe": 5_000_000}),
	}}
	rep := Compare(base, cur, Options{})
	regs := rep.regressions()
	if len(regs) != 1 || regs[0].Metric != "phase:partition_ns" {
		t.Fatalf("got %+v, want one phase:partition_ns regression", regs)
	}
}

func TestCompareNoiseFloors(t *testing.T) {
	// A 50% latency jump from 1ms to 1.5ms is under the 2ms absolute floor;
	// a 30% phase jump on a 1us phase is under the 1ms floor. Neither gates.
	base := trace.Journal{Runs: []trace.JournalEntry{
		runEntry("NPJ", 100, 1, map[string]int64{"others": 1_000}),
	}}
	cur := base
	cur.Runs = []trace.JournalEntry{
		runEntry("NPJ", 100, 2, map[string]int64{"others": 2_000}),
	}
	rep := Compare(base, cur, Options{})
	if rep.Failed {
		t.Errorf("sub-floor movement gated: %+v", rep.regressions())
	}
}

func TestCompareMissingAlgorithmFails(t *testing.T) {
	base := trace.Journal{Runs: []trace.JournalEntry{
		runEntry("NPJ", 100, 8, nil), runEntry("MWAY", 90, 8, nil),
	}}
	cur := trace.Journal{Runs: []trace.JournalEntry{
		runEntry("NPJ", 100, 8, nil), runEntry("PMJ_JM", 95, 8, nil),
	}}
	rep := Compare(base, cur, Options{})
	if !rep.Failed {
		t.Fatal("vanished algorithm did not fail")
	}
	if len(rep.MissingKeys) != 1 || rep.MissingKeys[0] != "MWAY" {
		t.Errorf("missing = %v, want [MWAY]", rep.MissingKeys)
	}
	if len(rep.AddedKeys) != 1 || rep.AddedKeys[0] != "PMJ_JM" {
		t.Errorf("added = %v, want [PMJ_JM]", rep.AddedKeys)
	}
}

func TestCompareEnvMismatchGatesOnlyStrict(t *testing.T) {
	envA := trace.EnvInfo{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 8, GOMAXPROCS: 8}
	envB := envA
	envB.NumCPU = 64
	base := trace.Journal{Env: &envA, Runs: []trace.JournalEntry{runEntry("NPJ", 200, 8, nil)}}
	cur := trace.Journal{Env: &envB, Runs: []trace.JournalEntry{runEntry("NPJ", 100, 8, nil)}}

	rep := Compare(base, cur, Options{})
	if len(rep.EnvMismatch) == 0 {
		t.Fatal("cpu-count mismatch not flagged")
	}
	if rep.Failed {
		t.Error("cross-machine regression gated without -strict")
	}
	if len(rep.regressions()) == 0 {
		t.Error("cross-machine regression not reported at all")
	}

	strict := Compare(base, cur, Options{Strict: true})
	if !strict.Failed {
		t.Error("strict mode did not gate on env mismatch")
	}
}

// TestCompareFlagsDifferentPrefetchDistances: two journals from one host
// whose processes calibrated to different probe-prefetch distances ran
// different kernels and are flagged; a journal from before the field
// (zero) is unknown, not different.
func TestCompareFlagsDifferentPrefetchDistances(t *testing.T) {
	env16 := trace.EnvInfo{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 8, GOMAXPROCS: 8, ProbePrefetch: 16}
	env64, envOld := env16, env16
	env64.ProbePrefetch, envOld.ProbePrefetch = 64, 0
	runs := []trace.JournalEntry{runEntry("NPJ", 100, 8, nil)}
	rep := Compare(trace.Journal{Env: &env16, Runs: runs}, trace.Journal{Env: &env64, Runs: runs}, Options{})
	if len(rep.EnvMismatch) != 1 || rep.EnvMismatch[0] != "probe_prefetch 16 vs 64" {
		t.Errorf("distances 16 and 64: mismatch = %v", rep.EnvMismatch)
	}
	rep = Compare(trace.Journal{Env: &envOld, Runs: runs}, trace.Journal{Env: &env64, Runs: runs}, Options{})
	if len(rep.EnvMismatch) != 0 {
		t.Errorf("a journal without the field mismatched: %v", rep.EnvMismatch)
	}
}

func TestCompareV1JournalsWithoutHeaders(t *testing.T) {
	// v1 journals carry no env header; nil env must compare cleanly.
	base := trace.Journal{Runs: []trace.JournalEntry{runEntry("NPJ", 100, 8, nil)}}
	rep := Compare(base, base, Options{})
	if len(rep.EnvMismatch) != 0 || rep.Failed {
		t.Errorf("headerless journals mismatched: %+v", rep.EnvMismatch)
	}
}

func TestCompareWindowScope(t *testing.T) {
	base := trace.Journal{Windows: []trace.JournalEntry{
		windowEntry("NPJ", 0, 100), windowEntry("NPJ", 1, 100),
	}}
	cur := trace.Journal{Windows: []trace.JournalEntry{
		windowEntry("NPJ", 0, 100), windowEntry("NPJ", 1, 40), // window 1 regressed
	}}
	rep := Compare(base, cur, Options{})
	regs := rep.regressions()
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
	if regs[0].Scope != "window" || regs[0].WindowID != 1 {
		t.Errorf("regression scope = %s window %d, want window 1", regs[0].Scope, regs[0].WindowID)
	}
	if got := keyName(regs[0].Scope, regs[0].Algorithm, regs[0].WindowID); got != "NPJ window 1" {
		t.Errorf("key = %q, want %q", got, "NPJ window 1")
	}
}

func TestCompareWindowsWithinOneJournal(t *testing.T) {
	j := trace.Journal{Windows: []trace.JournalEntry{
		windowEntry("NPJ", 0, 100),
		windowEntry("NPJ", 5, 45),
	}}
	rep := CompareWindows(j, 0, 5, Options{})
	if !rep.Failed {
		t.Fatal("window 5 at 45% of window 0 throughput did not fail")
	}
	rep = CompareWindows(j, 0, 0, Options{})
	if rep.Failed {
		t.Errorf("window self-compare failed: %+v", rep.regressions())
	}
}

func TestRepeatedRunsAverage(t *testing.T) {
	// Three base runs at 90/100/110 average to 100; one new run at 95 is
	// well inside the threshold even though it is below the slowest base run.
	base := trace.Journal{Runs: []trace.JournalEntry{
		runEntry("NPJ", 90, 8, nil), runEntry("NPJ", 100, 8, nil), runEntry("NPJ", 110, 8, nil),
	}}
	cur := trace.Journal{Runs: []trace.JournalEntry{runEntry("NPJ", 95, 8, nil)}}
	rep := Compare(base, cur, Options{})
	if rep.Failed {
		t.Errorf("averaged runs gated on jitter: %+v", rep.regressions())
	}
}

func TestWriteMarkdown(t *testing.T) {
	envA := trace.EnvInfo{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 8, GOMAXPROCS: 8}
	envB := envA
	envB.GoVersion = "go1.25.0"
	base := trace.Journal{Env: &envA, Runs: []trace.JournalEntry{runEntry("NPJ", 200, 8, nil), runEntry("MWAY", 90, 8, nil)}}
	cur := trace.Journal{Env: &envB, Runs: []trace.JournalEntry{runEntry("NPJ", 100, 8, nil)}}
	rep := Compare(base, cur, Options{})

	var md bytes.Buffer
	rep.WriteMarkdown(&md)
	out := md.String()
	for _, want := range []string{"cross-machine", "go1.24.0 vs go1.25.0", "Missing from new journal", "MWAY", "NPJ", "throughput_tuples_per_ms", "+50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
