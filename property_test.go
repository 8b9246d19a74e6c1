package iawj

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// TestPropertyAllAlgorithmsAgree drives every studied algorithm over
// randomized workload shapes (sizes, duplication, skew, thread counts,
// knobs) and checks the exact match count against ground truth. This is
// the repository's core invariant: eight very different implementations
// of Definition 2 must always compute the same join.
func TestPropertyAllAlgorithmsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	type seedCase struct {
		Seed uint64
	}
	f := func(c seedCase) bool {
		rng := rand.New(rand.NewPCG(c.Seed, c.Seed^0xabc))
		nR := rng.IntN(3000) + 1
		nS := rng.IntN(3000) + 1
		dupe := []int{1, 2, 8, 64}[rng.IntN(4)]
		skew := []float64{0, 0.5, 1.5}[rng.IntN(3)]
		threads := rng.IntN(4) + 1
		w := MicroStatic(nR, nS, dupe, skew, c.Seed)
		want := ExpectedMatches(w.R, w.S)
		cfg := Config{
			Threads:      threads,
			AtRest:       true,
			RadixBits:    []int{0, 4, 12}[rng.IntN(3)],
			SortStepFrac: []float64{0, 0.1, 0.5}[rng.IntN(3)],
			GroupSize:    rng.IntN(threads) + 1,
		}
		for _, name := range Algorithms() {
			cfg.Algorithm = name
			res, err := Join(w.R, w.S, cfg)
			if err != nil {
				t.Logf("seed %d %s: %v", c.Seed, name, err)
				return false
			}
			if res.Matches != want {
				t.Logf("seed %d %s: matches=%d want=%d (cfg %+v)", c.Seed, name, res.Matches, want, cfg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMetricsInvariants checks run-level invariants that must hold
// for any algorithm on any workload: monotone progressiveness, sane phase
// times, non-negative latency, last-match consistency.
func TestPropertyMetricsInvariants(t *testing.T) {
	w := Micro(MicroConfig{RateR: 200, RateS: 200, WindowMs: 40, Dupe: 4, Seed: 31})
	for _, name := range Algorithms() {
		res, err := Join(w.R, w.S, Config{
			Algorithm: name, Threads: 2, WindowMs: w.WindowMs, NsPerSimMs: 2000,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prevFrac := 0.0
		prevV := int64(-1)
		for _, p := range res.Progress {
			if p.Frac < prevFrac || p.V < prevV {
				t.Fatalf("%s: progressiveness must be monotone: %+v", name, res.Progress)
			}
			prevFrac, prevV = p.Frac, p.V
		}
		if n := len(res.Progress); res.Matches > 0 && res.Progress[n-1].Frac != 1.0 {
			t.Fatalf("%s: progress curve must end at 100%%", name)
		}
		if res.LatencyP50Ms > res.LatencyP95Ms || res.LatencyP95Ms > res.LatencyMaxMs {
			t.Fatalf("%s: latency quantiles out of order: p50=%d p95=%d max=%d",
				name, res.LatencyP50Ms, res.LatencyP95Ms, res.LatencyMaxMs)
		}
		for p, ns := range res.PhaseNs {
			if ns < 0 {
				t.Fatalf("%s: negative phase time at %d", name, p)
			}
		}
		if res.CPUUtil < 0 || res.CPUUtil > 1 {
			t.Fatalf("%s: cpu util %f", name, res.CPUUtil)
		}
		if res.LastMatchMs < res.TimeToFrac(1.0) {
			t.Fatalf("%s: last match %d before 100%% point %d",
				name, res.LastMatchMs, res.TimeToFrac(1.0))
		}
	}
}

// TestPropertyThreadCountInvariance: the join result must not depend on
// the degree of parallelism.
func TestPropertyThreadCountInvariance(t *testing.T) {
	w := MicroStatic(4000, 4000, 16, 0.8, 37)
	want := ExpectedMatches(w.R, w.S)
	for _, name := range Algorithms() {
		for threads := 1; threads <= 6; threads++ {
			res, err := Join(w.R, w.S, Config{Algorithm: name, Threads: threads, AtRest: true})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, threads, err)
			}
			if res.Matches != want {
				t.Fatalf("%s/%d: matches = %d, want %d", name, threads, res.Matches, want)
			}
		}
	}
}

// TestPropertyProgressSizeDoesNotDependOnSpeed: a Result's progress curve
// is the same 32 points however fast the join delivered its matches — here
// one join at two clock scales 100× apart, whose emission times spread
// over few or many histogram buckets — and the Result allocates nothing
// for it: the curve is a fixed array, filled from its first point to 100%.
func TestPropertyProgressSizeDoesNotDependOnSpeed(t *testing.T) {
	w := Micro(MicroConfig{RateR: 200, RateS: 200, WindowMs: 40, Dupe: 4, Seed: 31})
	for _, name := range Algorithms() {
		for _, ns := range []float64{500, 50_000} {
			res, err := Join(w.R, w.S, Config{Algorithm: name, Threads: 2, WindowMs: w.WindowMs, NsPerSimMs: ns})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if first, last := res.Progress[0], res.Progress[len(res.Progress)-1]; len(res.Progress) != 32 || first.Frac != 1.0/32 || last.Frac != 1 {
				t.Fatalf("%s at %v ns per simulated ms: progress %v, want 32 points from 1/32 to 1", name, ns, res.Progress)
			}
		}
	}
}
