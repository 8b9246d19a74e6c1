package zipf

import (
	"math"
	"testing"
)

// TestGoldenSequence pins the first draws of a fixed seed. TestDeterminism
// already checks that two generators with the same seed agree with each
// other; this golden prefix additionally catches a silent change to the
// sampling chain itself (rng construction, inversion constants), which
// would re-key every generated workload and invalidate recorded results.
func TestGoldenSequence(t *testing.T) {
	g := New(1000, 0.8, 42)
	golden := []uint64{475, 0, 376, 24, 922, 721, 128, 196, 673, 4, 47, 0, 5, 829, 1, 543}
	for i, want := range golden {
		if got := g.Next(); got != want {
			t.Fatalf("draw %d: got %d, want %d — the sampling chain changed; "+
				"if intentional, re-record the golden sequence and recorded fixtures", i, got, want)
		}
	}
	// Different seeds must diverge somewhere early.
	a, b := New(1000, 0.8, 1), New(1000, 0.8, 2)
	same := true
	for i := 0; i < 64; i++ {
		if a.Next() != b.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the same 64-draw prefix")
	}
}

// TestChiSquareSkewOne holds the theta=1.0 sampler (the paper's midpoint
// skew) to the Zipf law p_i proportional to 1/i^theta. The Gray et al.
// inversion is approximate in the middle ranks, so with 200k draws the
// chi-square statistic sits in the hundreds even for a correct sampler
// (measured 350-680 across seeds and domains); the bound is a generous
// sanity ceiling that still catches gross breakage — sampling uniformly
// instead would push the statistic past 30,000.
func TestChiSquareSkewOne(t *testing.T) {
	const (
		n     = 16
		draws = 200000
		bound = 1000.0
	)
	g := New(n, 1.0, 42)
	counts := make([]float64, n)
	for i := 0; i < draws; i++ {
		counts[g.Next()]++
	}
	theta := g.Theta() // 1.0 is nudged to 1+1e-6
	probs := make([]float64, n)
	var z float64
	for i := range probs {
		probs[i] = 1 / math.Pow(float64(i+1), theta)
		z += probs[i]
	}
	var chi2 float64
	for i := range probs {
		expected := probs[i] / z * draws
		d := counts[i] - expected
		chi2 += d * d / expected
	}
	if chi2 > bound {
		t.Fatalf("chi-square %.1f exceeds the sanity bound %.0f (df=%d, %d draws)", chi2, bound, n-1, draws)
	}
	// Shape sanity: the top rank dominates and mass decays by rank.
	for i := 1; i < n; i++ {
		if counts[i] > counts[0] {
			t.Fatalf("rank %d drawn more often than rank 0 (%v)", i, counts)
		}
	}
	if counts[0] < 8*counts[n-1] {
		t.Fatalf("skew 1.0 must separate top and bottom ranks by ~n x: top %v bottom %v", counts[0], counts[n-1])
	}
	if relErr := math.Abs(counts[0]/draws-probs[0]/z) / (probs[0] / z); relErr > 0.02 {
		t.Fatalf("top-rank frequency off by %.1f%%, want < 2%%", relErr*100)
	}
}

// TestMix64IsSplitMix64 pins the finalizer to the first outputs of the
// reference splitmix64 generator seeded with 0 (state advanced by the
// golden gamma before each mix): every seed the generators, the clock
// perturbation, the ingest jitter and the oracle derive hangs on it.
func TestMix64IsSplitMix64(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := Mix64(uint64(i) * gamma); got != want {
			t.Errorf("output %d: Mix64 = %#x, want %#x", i, got, want)
		}
	}
}
