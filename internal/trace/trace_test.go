package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// traced returns a collector of n workers whose rings, of the given
// capacity, a fresh recorder attached for run alg.
func traced(n, capacity int, alg string) (*Recorder, *metrics.Collector) {
	r := newRecorder(capacity)
	c := metrics.NewCollector(n)
	r.StartRun(alg, c)
	return r, c
}

func TestRecorderBeginEndPublishesSpans(t *testing.T) {
	r, c := traced(2, 8, "NPJ")
	tm := c.T(0)
	tm.Begin(metrics.PhaseBuildSort)
	tm.AddTuples(100)
	tm.Begin(metrics.PhaseProbe) // closes the build span
	tm.AddTuples(40)
	tm.End()

	spans := r.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	for i, want := range []struct {
		p      metrics.Phase
		tuples int64
	}{{metrics.PhaseBuildSort, 100}, {metrics.PhaseProbe, 40}} {
		s := spans[i]
		if s.Phase != int32(want.p) || s.Tuples[want.p] != want.tuples || s.Ns[want.p] != s.EndNs-s.StartNs {
			t.Errorf("span %d = %+v, want a fine %s span of %d tuples", i, s, want.p, want.tuples)
		}
		if s.TID != 0 || s.StartNs < 0 || s.EndNs < s.StartNs {
			t.Errorf("span %d: tid %d, [%d, %d)", i, s.TID, s.StartNs, s.EndNs)
		}
		if got := r.AlgName(s.Alg); got != "NPJ" {
			t.Errorf("span %d algorithm = %q, want NPJ", i, got)
		}
	}
	// One clock read per phase change: the build span ends where the
	// probe span starts.
	if spans[0].EndNs != spans[1].StartNs {
		t.Errorf("build ends at %d, probe starts at %d", spans[0].EndNs, spans[1].StartNs)
	}
}

// TestRecorderRecordExplicitSpan: an eager stretch — Begin, AddTuples,
// End — is one span, and the gap before the next stretch belongs to no
// span.
func TestRecorderRecordExplicitSpan(t *testing.T) {
	r, c := traced(1, 4, "SHJ_JM")
	tm := c.T(0)
	for range 2 {
		tm.Begin(metrics.PhaseProbe)
		tm.AddTuples(64)
		tm.End()
		time.Sleep(time.Millisecond)
	}
	spans := r.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	res := c.Snapshot("SHJ_JM", 1, 1)
	if got := spans[0].Ns[metrics.PhaseProbe] + spans[1].Ns[metrics.PhaseProbe]; got != res.PhaseNs[metrics.PhaseProbe] {
		t.Errorf("spans hold %d ns of probe, PhaseNs %d", got, res.PhaseNs[metrics.PhaseProbe])
	}
	if gap := spans[1].StartNs - spans[0].EndNs; gap < int64(time.Millisecond) {
		t.Errorf("the stretches are %d ns apart, want the 1 ms sleep between them", gap)
	}
	if spans[1].Tuples[metrics.PhaseProbe] != 64 {
		t.Errorf("span = %+v, want 64 probe tuples", spans[1])
	}
}

// TestRecorderOverflowCoarsens: a worker that records more stretches than
// its ring holds loses none of their time or tuples.
func TestRecorderOverflowCoarsens(t *testing.T) {
	r, c := traced(1, 2, "PMJ_JM")
	tm := c.T(0)
	for i := 0; i < 5; i++ {
		tm.Begin(metrics.PhaseMerge)
		tm.AddTuples(3)
		tm.End()
	}
	res := c.Snapshot("PMJ_JM", 1, 1)
	spans := r.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("Snapshot len = %d, want the ring's 2", len(spans))
	}
	var ns, tuples int64
	for _, s := range spans {
		ns += s.Ns[metrics.PhaseMerge]
		tuples += s.Tuples[metrics.PhaseMerge]
	}
	if ns != res.PhaseNs[metrics.PhaseMerge] || tuples != 15 {
		t.Errorf("spans hold %d ns and %d tuples, PhaseNs %d and 15 tuples booked", ns, tuples, res.PhaseNs[metrics.PhaseMerge])
	}
}

func TestRecorderStartRunDedupes(t *testing.T) {
	r := newRecorder(4)
	c := metrics.NewCollector(1)
	r.StartRun("NPJ", c)
	r.StartRun("PRJ", c)
	r.StartRun("NPJ", c)
	// Index 0 is the "?" of spans merged across runs.
	if got := strings.Join(r.Algorithms(), " "); got != "? NPJ PRJ" {
		t.Fatalf("Algorithms = %v, want [? NPJ PRJ]", got)
	}
	c.T(0).Begin(metrics.PhaseWait)
	c.T(0).End()
	if got := r.AlgName(r.Snapshot()[0].Alg); got != "NPJ" {
		t.Errorf("current algorithm = %q, want NPJ (last StartRun)", got)
	}
	if got := r.AlgName(99); got != "?" {
		t.Errorf("AlgName(99) = %q, want ?", got)
	}
}

func TestNilHandlesAreInert(t *testing.T) {
	var r *Recorder
	c := metrics.NewCollector(1)
	r.StartRun("x", c)
	c.T(0).Begin(metrics.PhaseProbe)
	c.T(0).End()
	if r.Snapshot() != nil || r.Algorithms() != nil || r.AlgName(0) != "?" {
		t.Error("nil recorder reports state")
	}

	var jw *JournalWriter
	if err := jw.Write(metricsResultFixture()); err != nil {
		t.Errorf("nil JournalWriter.Write = %v", err)
	}
}

// TestDisabledTracingAllocsPerSpan: recording an untraced worker's phase
// changes does not allocate.
func TestDisabledTracingAllocsPerSpan(t *testing.T) {
	tm := metrics.NewCollector(1).T(0)
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Begin(metrics.PhaseProbe)
		tm.AddTuples(64)
		tm.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %.1f per span, want 0", allocs)
	}
}

// TestEnabledTracingAllocsPerSpan: the rings are allocated by StartRun, so
// recording into one — also when a full ring coarsens — does not allocate.
func TestEnabledTracingAllocsPerSpan(t *testing.T) {
	_, c := traced(1, 64, "NPJ")
	tm := c.T(0)
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Begin(metrics.PhaseProbe)
		tm.AddTuples(64)
		tm.End()
	})
	if allocs != 0 {
		t.Errorf("enabled tracing allocates %.1f per span, want 0", allocs)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	r, c := traced(2, 8, "PRJ")
	c.T(0).Begin(metrics.PhasePartition)
	c.T(0).AddTuples(128)
	c.T(0).End()
	c.T(1).Begin(metrics.PhaseProbe)
	c.T(1).AddTuples(256)
	c.T(1).End()
	spans := r.Snapshot()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	ct, err := ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(ct.TraceEvents))
	}
	for i, ev := range ct.TraceEvents {
		s := spans[i]
		p := metrics.Phase(s.Phase)
		if ev.Ph != "X" || ev.Name != p.String() || ev.Args.Phase != p.String() {
			t.Errorf("event %d: ph %q, phase %q/%q, want X and %s", i, ev.Ph, ev.Name, ev.Args.Phase, p)
		}
		if ev.Args.Algorithm != "PRJ" || ev.Cat != "PRJ" {
			t.Errorf("event %d algorithm = %q/%q, want PRJ", i, ev.Args.Algorithm, ev.Cat)
		}
		// ns -> us conversion.
		if ev.Ts != float64(s.StartNs)/1e3 || ev.Dur != float64(s.Ns[p])/1e3 {
			t.Errorf("event %d at %v us for %v us, span %+v", i, ev.Ts, ev.Dur, s)
		}
		if ev.Args.Tuples != s.Tuples[p] || ev.TID != int(s.TID) {
			t.Errorf("event %d: tid %d, %d tuples, span %+v", i, ev.TID, ev.Args.Tuples, s)
		}
	}
}

// TestWriteChromeLaysOutCoarseSpans: a coarse span is written as its
// phases with time or tuples, back to back from its start in phase order;
// a fine span as its one phase, even when empty. Analyze reads the same
// layout.
func TestWriteChromeLaysOutCoarseSpans(t *testing.T) {
	coarse := Span{TID: 1, Alg: 1, Phase: -1, StartNs: 1000, EndNs: 9000}
	coarse.Ns[metrics.PhasePartition], coarse.Tuples[metrics.PhasePartition] = 3000, 30
	coarse.Tuples[metrics.PhaseMerge] = 5 // tuples but no time
	coarse.Ns[metrics.PhaseProbe] = 2000
	empty := Span{TID: 0, Alg: 1, Phase: int32(metrics.PhaseWait), StartNs: 500, EndNs: 500}
	events := ChromeEvents([]Span{coarse, empty}, testAlgNames("?", "NPJ"))
	want := []struct {
		name    string
		ts, dur float64
		tuples  int64
	}{
		{"partition", 1, 3, 30},
		{"merge", 4, 0, 5},
		{"probe", 4, 2, 0},
		{"wait", 0.5, 0, 0},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(want), events)
	}
	for i, w := range want {
		ev := events[i]
		if ev.Name != w.name || ev.Ts != w.ts || ev.Dur != w.dur || ev.Args.Tuples != w.tuples || ev.Args.Algorithm != "NPJ" {
			t.Errorf("event %d = %+v, want %s at %v us for %v us with %d tuples", i, ev, w.name, w.ts, w.dur, w.tuples)
		}
	}
	a := Analyze([]Span{coarse}, testAlgNames("?", "NPJ"))
	if len(a.Phases) != 3 || a.Phases[0].TotalNs != 3000 || a.Phases[2].TotalNs != 2000 || a.Algorithms[0].TotalNs != 5000 {
		t.Errorf("analysis of a coarse span: %+v", a)
	}
}

func TestWriteChromeNilRecorder(t *testing.T) {
	if err := WriteChrome(&bytes.Buffer{}, nil); err == nil {
		t.Error("WriteChrome(nil) = nil error, want error")
	}
}

func TestReadChromeRejectsGarbage(t *testing.T) {
	if _, err := ReadChrome(strings.NewReader("not json")); err == nil {
		t.Error("ReadChrome(garbage) = nil error, want error")
	}
}
