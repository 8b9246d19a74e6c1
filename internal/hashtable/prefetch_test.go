package hashtable

import "testing"

// TestPickPrefetch pins the calibration's decision rule apart from its
// timing: timings are per candidate in prefCandidates order {1, 8, 16,
// 32, 64}.
func TestPickPrefetch(t *testing.T) {
	for _, c := range []struct {
		name    string
		timings [len(prefCandidates)]int64
		want    int
	}{
		{"all level: the default stands", [...]int64{100, 100, 100, 100, 100}, 16},
		{"a few percent either way is a coin toss: the default stands", [...]int64{97, 104, 100, 96, 93}, 16},
		{"9.9% faster is not enough", [...]int64{2000, 1200, 1000, 1000, 901}, 16},
		{"exactly 10% faster moves", [...]int64{200, 120, 100, 100, 90}, 64},
		{"the fastest of several clear wins", [...]int64{200, 85, 100, 80, 88}, 32},
		{"a slower default with nothing clearly better", [...]int64{150, 130, 120, 115, 110}, 16},
		{"1 fastest, but within 10% of a pipelined candidate", [...]int64{85, 100, 100, 92, 100}, 16},
		{"1 beats the default by 10% but not every pipelined candidate", [...]int64{88, 100, 100, 100, 95}, 16},
		{"1 beats every pipelined candidate by 10%", [...]int64{81, 100, 100, 90, 95}, 1},
		{"1 slow, 8 a clear win", [...]int64{300, 60, 100, 100, 100}, 8},
		{"a stopped clock measures nothing", [...]int64{0, 0, 0, 0, 0}, 16},
		{"one zero sample does not win", [...]int64{100, 0, 100, 100, 100}, 16},
	} {
		if got := pickPrefetch(c.timings); got != c.want {
			t.Errorf("%s: pickPrefetch(%v) = %d, want %d", c.name, c.timings, got, c.want)
		}
	}
}

// TestCalibrationSetsADistanceTheKernelsAccept: whatever the host's noise
// makes of the timings, the result is one of the candidates, and the
// getter reads back what the setter clamped.
func TestCalibrationSetsADistanceTheKernelsAccept(t *testing.T) {
	d := CalibrateProbePrefetch()
	ok := false
	for _, cand := range prefCandidates {
		ok = ok || d == cand
	}
	if !ok {
		t.Fatalf("CalibrateProbePrefetch() = %d, not one of %v", d, prefCandidates)
	}
	before := ProbePrefetchDistance()
	defer SetProbePrefetchDistance(before)
	for in, want := range map[int]int{-3: 1, 1: 1, 32: 32, 1000: prefBlockMax} {
		SetProbePrefetchDistance(in)
		if got := ProbePrefetchDistance(); got != want {
			t.Errorf("after SetProbePrefetchDistance(%d): ProbePrefetchDistance() = %d, want %d", in, got, want)
		}
	}
}
