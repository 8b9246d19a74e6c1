package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
)

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
		spans = append(spans, Span{
			TID:    tid,
			Phase:  int32(metrics.PhaseProbe),
			Alg:    0,
			DurNs:  dur,
			Tuples: tuplesOf(tid),
		})
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
	one := []Span{{TID: 0, Phase: int32(metrics.PhaseBuildSort), DurNs: 5_000_000, Tuples: 10}}
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
		{TID: 0, Phase: int32(metrics.PhaseProbe), DurNs: 2_000_000, Tuples: 10},
		{TID: 1, Phase: int32(metrics.PhaseProbe), DurNs: 2_000_000, Tuples: 10},
		{TID: 2, Phase: int32(metrics.PhaseProbe), DurNs: 3_000_000, Tuples: 10},
	}
	if a := Analyze(slow, testAlgNames("NPJ")); len(a.Stragglers) != 0 {
		t.Errorf("threshold flagged a 1.5x worker: %+v", a.Stragglers)
	}
}

func TestRecorderAnalyze(t *testing.T) {
	rec := NewRecorder(4, 0)
	rec.StartRun("MWAY")
	for tid := 0; tid < 4; tid++ {
		dur := int64(1_000_000)
		if tid == 3 {
			dur = 4_000_000
		}
		rec.T(tid).Record(int(metrics.PhaseMerge), 0, dur, 100)
	}
	a := Analyze(rec.Snapshot(), rec.AlgName)
	if len(a.Stragglers) != 1 || a.Stragglers[0].TID != 3 {
		t.Fatalf("live analysis: got %+v, want TID 3 flagged", a.Stragglers)
	}
	if a.Stragglers[0].Algorithm != "MWAY" {
		t.Errorf("algorithm = %q, want MWAY", a.Stragglers[0].Algorithm)
	}
	// Nil recorder analyzes to an empty report, not a panic.
	var nilRec *Recorder
	if a := Analyze(nilRec.Snapshot(), nilRec.AlgName); len(a.Phases) != 0 {
		t.Errorf("nil recorder analysis not empty: %+v", a)
	}
}

func TestSpansOfChromeRoundTrip(t *testing.T) {
	// Spans -> Chrome events -> spans must survive aggregation: same cell
	// totals and the same straggler verdict.
	spans := stragglerSpans(2, 4, func(int32) int64 { return 1000 })
	ct := ChromeTrace{TraceEvents: ChromeEvents(spans, testAlgNames("NPJ"))}
	back, algName := SpansOfChrome(ct)
	if len(back) != len(spans) {
		t.Fatalf("round trip lost spans: %d -> %d", len(spans), len(back))
	}
	a := Analyze(back, algName)
	if len(a.Stragglers) != 1 || a.Stragglers[0].TID != 2 {
		t.Fatalf("round-trip analysis: got %+v, want TID 2 flagged", a.Stragglers)
	}
	if a.Stragglers[0].Algorithm != "NPJ" {
		t.Errorf("round-trip algorithm = %q, want NPJ", a.Stragglers[0].Algorithm)
	}
}

func TestAnalysisWriteText(t *testing.T) {
	spans := stragglerSpans(2, 4, func(int32) int64 { return 1000 })
	a := Analyze(spans, testAlgNames("NPJ"))
	a.DroppedSpans = 7
	var buf bytes.Buffer
	a.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"NPJ", "probe", "imbalance", "critical_tid", "slow", "7 spans were dropped"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
