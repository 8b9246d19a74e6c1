package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestRecorderBeginEndPublishesSpans(t *testing.T) {
	r := NewRecorder(2, 8)
	r.StartRun("NPJ")

	w := r.T(0)
	w.Begin(2) // build/sort
	w.AddTuples(100)
	w.Begin(4) // probe: implicitly closes the build span
	w.AddTuples(40)
	w.End()

	spans := r.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Phase != 2 || spans[0].Tuples != 100 {
		t.Errorf("span 0 = %+v, want phase 2 with 100 tuples", spans[0])
	}
	if spans[1].Phase != 4 || spans[1].Tuples != 40 {
		t.Errorf("span 1 = %+v, want phase 4 with 40 tuples", spans[1])
	}
	for i, s := range spans {
		if s.TID != 0 {
			t.Errorf("span %d TID = %d, want 0", i, s.TID)
		}
		if s.DurNs < 0 || s.StartNs < 0 {
			t.Errorf("span %d has negative time: %+v", i, s)
		}
		if got := r.AlgName(s.Alg); got != "NPJ" {
			t.Errorf("span %d algorithm = %q, want NPJ", i, got)
		}
	}
	if spans[0].StartNs > spans[1].StartNs {
		t.Errorf("snapshot not sorted by start: %v then %v", spans[0].StartNs, spans[1].StartNs)
	}
}

func TestRecorderRecordExplicitSpan(t *testing.T) {
	r := NewRecorder(1, 4)
	r.StartRun("SHJ_JM")
	w := r.T(0)
	start := w.NowNs()
	w.Record(4, start, 1234, 64)

	spans := r.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.StartNs != start || s.DurNs != 1234 || s.Tuples != 64 || s.Phase != 4 {
		t.Errorf("span = %+v", s)
	}
	if s.PhaseName() != "probe" {
		t.Errorf("PhaseName = %q, want probe", s.PhaseName())
	}
}

func TestRecorderOverflowDropsAndCounts(t *testing.T) {
	r := NewRecorder(1, 2)
	w := r.T(0)
	for i := 0; i < 5; i++ {
		w.Record(0, 0, 1, 0)
	}
	if d := r.Dropped(); d != 3 {
		t.Errorf("Dropped = %d, want 3", d)
	}
	if got := len(r.Snapshot()); got != 2 {
		t.Errorf("Snapshot len = %d, want 2", got)
	}
}

func TestRecorderStartRunDedupes(t *testing.T) {
	r := NewRecorder(1, 4)
	r.StartRun("NPJ")
	r.StartRun("PRJ")
	r.StartRun("NPJ")
	algs := r.Algorithms()
	// Index 0 is the "?" placeholder for spans recorded before any run.
	want := []string{"?", "NPJ", "PRJ"}
	if len(algs) != len(want) {
		t.Fatalf("Algorithms = %v, want %v", algs, want)
	}
	for i := range want {
		if algs[i] != want[i] {
			t.Fatalf("Algorithms = %v, want %v", algs, want)
		}
	}
	w := r.T(0)
	w.Record(0, 0, 1, 0)
	if got := r.AlgName(r.Snapshot()[0].Alg); got != "NPJ" {
		t.Errorf("current algorithm = %q, want NPJ (last StartRun)", got)
	}
	if got := r.AlgName(99); got != "?" {
		t.Errorf("AlgName(99) = %q, want ?", got)
	}
}

func TestNilHandlesAreInert(t *testing.T) {
	var r *Recorder
	if r.T(0) != nil {
		t.Error("nil recorder T(0) != nil")
	}
	if r.Snapshot() != nil || r.Dropped() != 0 || r.Workers() != 0 {
		t.Error("nil recorder reports state")
	}
	r.StartRun("x")

	var w *Worker
	w.Begin(1)
	w.AddTuples(5)
	w.End()
	w.Record(1, 0, 1, 1)
	if w.NowNs() != 0 {
		t.Error("nil worker NowNs != 0")
	}

	live := NewRecorder(1, 4)
	if h := live.T(-1); h != nil {
		t.Error("T(-1) != nil")
	}
	if h := live.T(1); h != nil {
		t.Error("T(out of range) != nil")
	}

	var jw *JournalWriter
	if err := jw.Write(metricsResultFixture()); err != nil {
		t.Errorf("nil JournalWriter.Write = %v", err)
	}
}

// TestDisabledTracingAllocsPerSpan is the tentpole's zero-cost guarantee:
// recording through a nil worker handle (tracing disabled) must not
// allocate.
func TestDisabledTracingAllocsPerSpan(t *testing.T) {
	var w *Worker
	allocs := testing.AllocsPerRun(1000, func() {
		w.Begin(4)
		w.AddTuples(64)
		w.End()
		w.Record(4, 0, 100, 64)
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %.1f per span, want 0", allocs)
	}
}

// TestEnabledTracingAllocsPerSpan checks the construction-only allocation
// property: publishing into a preallocated ring must not allocate either.
func TestEnabledTracingAllocsPerSpan(t *testing.T) {
	r := NewRecorder(1, 1<<20)
	r.StartRun("NPJ")
	w := r.T(0)
	allocs := testing.AllocsPerRun(1000, func() {
		w.Begin(4)
		w.AddTuples(64)
		w.End()
	})
	if allocs != 0 {
		t.Errorf("enabled tracing allocates %.1f per span, want 0", allocs)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	r := NewRecorder(2, 8)
	r.StartRun("PRJ")
	r.T(0).Record(1, 10, 2000, 128) // partition
	r.T(1).Record(4, 20, 3000, 256) // probe

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
	ev := ct.TraceEvents[0]
	if ev.Ph != "X" {
		t.Errorf("ph = %q, want X", ev.Ph)
	}
	if ev.Name != "partition" || ev.Args.Phase != "partition" {
		t.Errorf("event 0 phase = %q/%q, want partition", ev.Name, ev.Args.Phase)
	}
	if ev.Args.Algorithm != "PRJ" || ev.Cat != "PRJ" {
		t.Errorf("event 0 algorithm = %q/%q, want PRJ", ev.Args.Algorithm, ev.Cat)
	}
	// ns -> us conversion.
	if ev.Dur != 2.0 {
		t.Errorf("event 0 dur = %v us, want 2", ev.Dur)
	}
	if ev.Args.Tuples != 128 {
		t.Errorf("event 0 tuples = %d, want 128", ev.Args.Tuples)
	}
	if ct.TraceEvents[1].TID != 1 {
		t.Errorf("event 1 tid = %d, want 1", ct.TraceEvents[1].TID)
	}
}

func TestWriteChromeNilRecorder(t *testing.T) {
	if err := WriteChrome(&bytes.Buffer{}, nil); err == nil {
		t.Error("WriteChrome(nil) = nil error, want error")
	}
}

func TestWriteChromeReportsDropped(t *testing.T) {
	r := NewRecorder(1, 1)
	r.T(0).Record(0, 0, 1, 0)
	r.T(0).Record(0, 0, 1, 0) // dropped
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	ct, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ct.OtherData["droppedSpans"] != "1" {
		t.Errorf("droppedSpans = %q, want 1", ct.OtherData["droppedSpans"])
	}
}

func TestReadChromeRejectsGarbage(t *testing.T) {
	if _, err := ReadChrome(strings.NewReader("not json")); err == nil {
		t.Error("ReadChrome(garbage) = nil error, want error")
	}
}
