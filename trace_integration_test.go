package iawj

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/trace"
)

// requiredPhases lists the phase names every trace of the given algorithm
// must contain: the per-worker spans must cover each phase the algorithm
// actually executes (Figure 7's non-zero columns).
var requiredPhases = map[string][]string{
	"NPJ":    {"wait", "build/sort", "probe"},
	"PRJ":    {"wait", "partition", "build/sort", "probe"},
	"MWAY":   {"wait", "partition", "build/sort", "merge", "probe"},
	"MPASS":  {"wait", "partition", "build/sort", "merge", "probe"},
	"SHJ_JM": {"partition", "build/sort", "probe"},
	"SHJ_JB": {"partition", "build/sort", "probe"},
	"PMJ_JM": {"partition", "build/sort", "merge", "probe"},
	"PMJ_JB": {"partition", "build/sort", "merge", "probe"},
}

// TestTraceCoversAllAlgorithms is the tentpole's acceptance check: joining
// with a recorder must produce Perfetto-loadable Chrome trace JSON whose
// per-worker spans cover every phase each of the eight algorithms runs.
func TestTraceCoversAllAlgorithms(t *testing.T) {
	w := smallWorkload(t)
	const threads = 2
	rec := NewTraceRecorder()

	for _, name := range allAlgorithms {
		if _, err := Join(w.R, w.S, Config{
			Algorithm:  name,
			Threads:    threads,
			WindowMs:   w.WindowMs,
			NsPerSimMs: 1000,
			Trace:      rec,
		}); err != nil {
			t.Fatalf("Join(%s): %v", name, err)
		}
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, rec); err != nil {
		t.Fatal(err)
	}
	ct, err := trace.ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("trace contains no events")
	}

	phasesByAlg := map[string]map[string]bool{}
	tidsByAlg := map[string]map[int]bool{}
	for i, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %d: ph = %q, want complete event X", i, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("event %d: negative ts/dur: %+v", i, ev)
		}
		if ev.TID < 0 || ev.TID >= threads {
			t.Fatalf("event %d: tid = %d, want [0,%d)", i, ev.TID, threads)
		}
		if ev.Name != ev.Args.Phase {
			t.Fatalf("event %d: name %q != args.phase %q", i, ev.Name, ev.Args.Phase)
		}
		alg := ev.Args.Algorithm
		if phasesByAlg[alg] == nil {
			phasesByAlg[alg] = map[string]bool{}
			tidsByAlg[alg] = map[int]bool{}
		}
		phasesByAlg[alg][ev.Name] = true
		tidsByAlg[alg][ev.TID] = true
	}

	for _, name := range allAlgorithms {
		got := phasesByAlg[name]
		if got == nil {
			t.Errorf("%s: no spans recorded", name)
			continue
		}
		for _, p := range requiredPhases[name] {
			if !got[p] {
				t.Errorf("%s: missing %q spans (have %v)", name, p, keys(got))
			}
		}
		// Every worker must have recorded spans: the trace is per-worker.
		if len(tidsByAlg[name]) != threads {
			t.Errorf("%s: spans from %d workers, want %d", name, len(tidsByAlg[name]), threads)
		}
	}
}

// TestTraceRecordsEveryWorker: a recorder made without knowing the
// thread count records spans for every worker of a four-thread join.
func TestTraceRecordsEveryWorker(t *testing.T) {
	w := smallWorkload(t)
	rec := NewTraceRecorder()
	if _, err := Join(w.R, w.S, Config{Algorithm: "PRJ", Threads: 4, WindowMs: w.WindowMs, NsPerSimMs: 1000, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	tids := map[int32]bool{}
	for _, s := range rec.Snapshot() {
		tids[s.TID] = true
	}
	if len(tids) != 4 {
		t.Errorf("spans from workers %v, want 0-3", tids)
	}
}

// TestTraceDisabledIsFree: a Join without a recorder behaves identically
// (that an untraced phase change allocates nothing is internal/trace's
// AllocsPerRun tests).
func TestTraceDisabledIsFree(t *testing.T) {
	w := smallWorkload(t)
	want := ExpectedMatches(w.R, w.S)
	res, err := Join(w.R, w.S, Config{
		Algorithm:  "SHJ_JM",
		Threads:    2,
		WindowMs:   w.WindowMs,
		NsPerSimMs: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != want {
		t.Fatalf("matches = %d, want %d", res.Matches, want)
	}
}

// TestTraceRecorderReuseAcrossRuns checks the sweep use case: one recorder
// tagged per run, correctness unaffected.
func TestTraceRecorderReuseAcrossRuns(t *testing.T) {
	w := smallWorkload(t)
	want := ExpectedMatches(w.R, w.S)
	rec := NewTraceRecorder()
	for i, name := range []string{"NPJ", "NPJ", "PRJ"} {
		res, err := Join(w.R, w.S, Config{
			Algorithm:  name,
			Threads:    2,
			WindowMs:   w.WindowMs,
			NsPerSimMs: 1000,
			Trace:      rec,
		})
		if err != nil {
			t.Fatalf("run %d (%s): %v", i, name, err)
		}
		if res.Matches != want {
			t.Fatalf("run %d (%s): matches = %d, want %d", i, name, res.Matches, want)
		}
	}
	algs := rec.Algorithms()
	if fmt.Sprint(algs) != "[? NPJ PRJ]" {
		t.Errorf("Algorithms = %v, want [? NPJ PRJ]", algs)
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
