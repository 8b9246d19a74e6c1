package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// fine is the span one phase change closes: tid in phase p of run alg for
// durNs from startNs, covering tuples.
func fine(tid, alg int32, p metrics.Phase, startNs, durNs, tuples int64) Span {
	s := Span{TID: tid, Alg: alg, Phase: int32(p), StartNs: startNs, EndNs: startNs + durNs}
	s.Ns[p], s.Tuples[p] = durNs, tuples
	return s
}

func testAlgNames(names ...string) func(int32) string {
	return func(i int32) string {
		if i < 0 || int(i) >= len(names) {
			return "?"
		}
		return names[i]
	}
}

// stragglerSpans builds one probe-phase cell with four workers where worker
// slowTID carries slowFactor x the busy time of the rest. tuplesOf lets the
// caller skew the slow worker's input share.
func stragglerSpans(slowTID int32, slowFactor int64, tuplesOf func(tid int32) int64) []Span {
	var spans []Span
	for tid := int32(0); tid < 4; tid++ {
		dur := int64(1_000_000)
		if tid == slowTID {
			dur *= slowFactor
		}
		spans = append(spans, fine(tid, 0, metrics.PhaseProbe, 0, dur, tuplesOf(tid)))
	}
	return spans
}

func TestAnalyzeFlagsSlowStraggler(t *testing.T) {
	// Worker 2 is 4x slower than the rest with the same tuple share: the
	// analyzer must name it, attribute "slow", and report the 4x ratio.
	spans := stragglerSpans(2, 4, func(int32) int64 { return 1000 })
	a := Analyze(spans, testAlgNames("NPJ"))

	if len(a.Stragglers) != 1 {
		t.Fatalf("got %d stragglers, want 1: %+v", len(a.Stragglers), a.Stragglers)
	}
	s := a.Stragglers[0]
	if s.TID != 2 {
		t.Errorf("straggler TID = %d, want 2", s.TID)
	}
	if s.Algorithm != "NPJ" || s.Phase != metrics.PhaseProbe {
		t.Errorf("straggler cell = %s/%s, want NPJ/probe", s.Algorithm, s.Phase)
	}
	if s.Cause != "slow" {
		t.Errorf("cause = %q, want %q (tuple share is even)", s.Cause, "slow")
	}
	if s.Ratio < 3.9 || s.Ratio > 4.1 {
		t.Errorf("ratio = %.2f, want ~4.0", s.Ratio)
	}
}

func TestAnalyzeAttributesSkewStraggler(t *testing.T) {
	// Worker 1 is 4x slower AND carries 4x the tuples: the cause is the
	// data, not the worker.
	spans := stragglerSpans(1, 4, func(tid int32) int64 {
		if tid == 1 {
			return 4000
		}
		return 1000
	})
	a := Analyze(spans, testAlgNames("PRJ"))

	if len(a.Stragglers) != 1 {
		t.Fatalf("got %d stragglers, want 1: %+v", len(a.Stragglers), a.Stragglers)
	}
	s := a.Stragglers[0]
	if s.TID != 1 || s.Cause != "skew" {
		t.Errorf("straggler = TID %d cause %q, want TID 1 cause skew", s.TID, s.Cause)
	}
	if s.TupleRatio < 3.9 || s.TupleRatio > 4.1 {
		t.Errorf("tuple ratio = %.2f, want ~4.0", s.TupleRatio)
	}
}

func TestAnalyzePhaseStatsAndCriticalPath(t *testing.T) {
	spans := stragglerSpans(2, 4, func(int32) int64 { return 1000 })
	a := Analyze(spans, testAlgNames("NPJ"))

	if len(a.Phases) != 1 {
		t.Fatalf("got %d phase cells, want 1", len(a.Phases))
	}
	st := a.Phases[0]
	if st.Workers != 4 || st.Spans != 4 {
		t.Errorf("workers/spans = %d/%d, want 4/4", st.Workers, st.Spans)
	}
	// Busy times 1,1,4,1 ms: total 7ms, mean 1.75ms, max 4ms.
	if st.TotalNs != 7_000_000 || st.MaxNs != 4_000_000 {
		t.Errorf("total/max = %d/%d, want 7e6/4e6", st.TotalNs, st.MaxNs)
	}
	if st.Imbalance < 2.2 || st.Imbalance > 2.4 {
		t.Errorf("imbalance = %.2f, want ~2.29 (4/1.75)", st.Imbalance)
	}
	// All spans start at 0; the last end is 4ms, so the three fast workers
	// each stall 3ms at the phase barrier.
	if st.BarrierStallNs != 9_000_000 {
		t.Errorf("barrier stall = %d, want 9e6", st.BarrierStallNs)
	}

	if len(a.Algorithms) != 1 {
		t.Fatalf("got %d algorithm summaries, want 1", len(a.Algorithms))
	}
	alg := a.Algorithms[0]
	if alg.CriticalTID != 2 || alg.CriticalNs != 4_000_000 {
		t.Errorf("critical path = TID %d (%dns), want TID 2 (4e6ns)", alg.CriticalTID, alg.CriticalNs)
	}
}

func TestAnalyzeNoStragglerCases(t *testing.T) {
	// A single worker has nothing to compare against.
	one := []Span{fine(0, 0, metrics.PhaseBuildSort, 0, 5_000_000, 10)}
	if a := Analyze(one, testAlgNames("SHJ_JM")); len(a.Stragglers) != 0 {
		t.Errorf("single-worker cell flagged stragglers: %+v", a.Stragglers)
	}
	// Balanced workers stay below the threshold.
	balanced := stragglerSpans(0, 1, func(int32) int64 { return 1000 })
	a := Analyze(balanced, testAlgNames("NPJ"))
	if len(a.Stragglers) != 0 {
		t.Errorf("balanced cell flagged stragglers: %+v", a.Stragglers)
	}
	if len(a.Phases) != 1 || a.Phases[0].Imbalance != 1.0 {
		t.Errorf("balanced imbalance = %+v, want 1.0", a.Phases)
	}
	// 1.5x over the median is below the 2.0 threshold.
	slow := []Span{
		fine(0, 0, metrics.PhaseProbe, 0, 2_000_000, 10),
		fine(1, 0, metrics.PhaseProbe, 0, 2_000_000, 10),
		fine(2, 0, metrics.PhaseProbe, 0, 3_000_000, 10),
	}
	if a := Analyze(slow, testAlgNames("NPJ")); len(a.Stragglers) != 0 {
		t.Errorf("threshold flagged a 1.5x worker: %+v", a.Stragglers)
	}
}

// TestRecorderAnalyze: the live path, recorder to verdict. Worker 3
// sleeps through its merge while the others merge nothing.
func TestRecorderAnalyze(t *testing.T) {
	rec, c := traced(4, 16, "MWAY")
	for tid := 0; tid < 4; tid++ {
		c.T(tid).Begin(metrics.PhaseMerge)
		c.T(tid).AddTuples(100)
		if tid == 3 {
			time.Sleep(2 * time.Millisecond)
		}
		c.T(tid).End()
	}
	a := Analyze(rec.Snapshot(), rec.AlgName)
	if len(a.Stragglers) == 0 || a.Stragglers[0].TID != 3 || a.Stragglers[0].Algorithm != "MWAY" {
		t.Fatalf("live analysis: got %+v, want MWAY's TID 3 flagged first", a.Stragglers)
	}
	res := c.Snapshot("MWAY", 1, 1)
	if len(a.Phases) != 1 || a.Phases[0].Workers != 4 || a.Phases[0].TotalNs != res.PhaseNs[metrics.PhaseMerge] || a.Algorithms[0].CriticalTID != 3 {
		t.Errorf("live analysis: %+v, %+v; PhaseNs %v", a.Phases, a.Algorithms, res.PhaseNs)
	}
	// Nil recorder analyzes to an empty report, not a panic.
	var nilRec *Recorder
	if a := Analyze(nilRec.Snapshot(), nilRec.AlgName); len(a.Phases) != 0 {
		t.Errorf("nil recorder analysis not empty: %+v", a)
	}
}

// TestSpansOfChromeRoundTrip: spans -> Chrome events -> spans keeps every
// span's nanoseconds, busy time and tuples exactly, odd values included —
// the microsecond floats of the format are rounded back, not truncated —
// and the same straggler verdict.
func TestSpansOfChromeRoundTrip(t *testing.T) {
	spans := stragglerSpans(2, 4, func(int32) int64 { return 1000 })
	for i, start := range []int64{1001, 999_999, 1_234_567_891, 86_400_000_000_007} {
		spans = append(spans, fine(int32(i), 0, metrics.PhasePartition, start, 3*start/7+1, start%13))
	}
	ct := ChromeTrace{TraceEvents: ChromeEvents(spans, testAlgNames("NPJ"))}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ct); err != nil {
		t.Fatal(err)
	}
	read, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, algName := SpansOfChrome(read)
	if len(back) != len(spans) {
		t.Fatalf("round trip lost spans: %d -> %d", len(spans), len(back))
	}
	for i := range spans {
		if back[i] != spans[i] {
			t.Errorf("span %d came back as %+v, was %+v", i, back[i], spans[i])
		}
	}
	a, was := Analyze(back, algName), Analyze(spans, testAlgNames("NPJ"))
	for i, st := range a.Phases {
		if st.TotalNs != was.Phases[i].TotalNs {
			t.Errorf("cell %s: %d busy ns after the round trip, %d before", st.Phase, st.TotalNs, was.Phases[i].TotalNs)
		}
	}
	if !reflect.DeepEqual(a.Stragglers, was.Stragglers) {
		t.Errorf("round-trip stragglers %+v, before %+v", a.Stragglers, was.Stragglers)
	}
}

func TestAnalysisWriteText(t *testing.T) {
	spans := stragglerSpans(2, 4, func(int32) int64 { return 1000 })
	a := Analyze(spans, testAlgNames("NPJ"))
	var buf bytes.Buffer
	a.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"NPJ", "probe", "imbalance", "critical_tid", "slow"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
