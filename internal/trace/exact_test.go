package trace_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/joins"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// phaseSums adds up, per run name and phase, the time of a span snapshot.
func phaseSums(spans []trace.Span, algName func(int32) string) map[string][6]int64 {
	out := map[string][6]int64{}
	for _, s := range spans {
		v := out[algName(s.Alg)]
		for p := range v {
			v[p] += s.Ns[p]
		}
		out[algName(s.Alg)] = v
	}
	return out
}

// checkExact holds a recorder to the runs it recorded: the spans of each
// run, summed over workers, equal its PhaseNs per phase, in the snapshot
// and after a Chrome trace's write and read.
func checkExact(t *testing.T, rec *trace.Recorder, runs []metrics.Result) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, rec); err != nil {
		t.Fatal(err)
	}
	ct, err := trace.ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	live := phaseSums(rec.Snapshot(), rec.AlgName)
	read := phaseSums(trace.SpansOfChrome(ct))
	for _, res := range runs {
		if live[res.Algorithm] != res.PhaseNs {
			t.Errorf("%s: spans hold %v ns per phase, PhaseNs %v", res.Algorithm, live[res.Algorithm], res.PhaseNs)
		}
		if read[res.Algorithm] != res.PhaseNs {
			t.Errorf("%s: the Chrome trace holds %v ns per phase, PhaseNs %v", res.Algorithm, read[res.Algorithm], res.PhaseNs)
		}
	}
}

func run(t *testing.T, rec *trace.Recorder, name string, w gen.Workload, threads int) metrics.Result {
	t.Helper()
	alg, err := joins.New(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(alg, w.R, w.S, w.WindowMs, core.RunConfig{Threads: threads, AtRest: w.AtRest, NsPerSimMs: 1000, Trace: rec})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestTraceNeverLosesTime: for every algorithm and HANDSHAKE, at ring
// capacities from two spans to the default, a traced run's spans add up
// to its PhaseNs exactly. At 64 spans and up one recorder takes all nine
// runs, whose spans a full ring must keep apart.
func TestTraceNeverLosesTime(t *testing.T) {
	w := gen.Micro(gen.MicroConfig{RateR: 8, RateS: 8, WindowMs: 100, Dupe: 4, Seed: 7})
	names := append(joins.All(), "HANDSHAKE")
	for _, capacity := range []int{2, 3, 64, trace.DefaultSpans} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			shared := trace.NewRecorderOfCapacity(capacity)
			var runs []metrics.Result
			for _, name := range names {
				rec := shared
				if capacity < 64 {
					rec = trace.NewRecorderOfCapacity(capacity)
				}
				res := run(t, rec, name, w, 2)
				if rec == shared {
					runs = append(runs, res)
				} else {
					checkExact(t, rec, []metrics.Result{res})
				}
			}
			checkExact(t, shared, runs)
		})
	}
}

// TestTraceOverflowKeepsTime: runs that record many times the default
// ring's spans — SHJ_JM's pull batches on 2^18 x 2^18 tuples at rest, and
// HANDSHAKE's three phase changes per tuple and cell — still add up.
func TestTraceOverflowKeepsTime(t *testing.T) {
	for _, c := range []struct {
		name string
		w    gen.Workload
	}{
		{"SHJ_JM", gen.MicroStatic(1<<18, 1<<18, 4, 0, 42)},
		{"HANDSHAKE", gen.MicroStatic(3000, 3000, 4, 0, 42)},
	} {
		rec := trace.NewRecorder()
		res := run(t, rec, c.name, c.w, 2)
		coarse := 0
		for _, s := range rec.Snapshot() {
			if s.Phase < 0 {
				coarse++
			}
		}
		if coarse == 0 {
			t.Errorf("%s: no ring filled, so this checks nothing", c.name)
		}
		checkExact(t, rec, []metrics.Result{res})
	}
}
