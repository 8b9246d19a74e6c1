package lazy

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/tuple"
)

func expected(r, s tuple.Relation) int64 {
	freq := map[int32]int64{}
	for _, x := range r {
		freq[x.Key]++
	}
	var n int64
	for _, x := range s {
		n += freq[x.Key]
	}
	return n
}

func staticRun(t *testing.T, alg core.Algorithm, w gen.Workload, threads int, knobs core.Knobs) int64 {
	t.Helper()
	res, err := core.Run(alg, w.R, w.S, w.WindowMs, core.RunConfig{
		Threads: threads, AtRest: true, Knobs: knobs,
	})
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res.Matches
}

func TestPRJRadixBitSweep(t *testing.T) {
	w := gen.MicroStatic(5000, 5000, 8, 0.2, 3)
	want := expected(w.R, w.S)
	for _, bits := range []int{1, 4, 8, 12, 16} {
		got := staticRun(t, PRJ{}, w, 4, core.Knobs{RadixBits: bits})
		if got != want {
			t.Fatalf("bits=%d: matches = %d, want %d", bits, got, want)
		}
	}
}

// TestPRJPeakCountsBothCopies: PRJ's partition phase copies both inputs,
// each worker booking R's copy by its R chunk and S's by its S chunk, so
// the peak is never below the two copies together — also when one input
// is far larger than the other.
func TestPRJPeakCountsBothCopies(t *testing.T) {
	for _, n := range [][2]int{{8192, 64}, {64, 8192}} {
		w := gen.MicroStatic(n[0], n[1], 1, 0, 9)
		res, err := core.Run(PRJ{}, w.R, w.S, w.WindowMs, core.RunConfig{Threads: 2, AtRest: true})
		if err != nil {
			t.Fatal(err)
		}
		if floor := int64(len(w.R)+len(w.S)) * tuple.Bytes; res.MemPeakBytes < floor {
			t.Errorf("|R|=%d |S|=%d: peak %d B, below the %d B of the two partition copies", n[0], n[1], res.MemPeakBytes, floor)
		}
	}
}

func TestSortJoinsWithAndWithoutSIMD(t *testing.T) {
	w := gen.MicroStatic(4000, 6000, 12, 0.3, 5)
	want := expected(w.R, w.S)
	for _, alg := range []core.Algorithm{MWay{}, MPass{}} {
		for _, scalar := range []bool{false, true} {
			got := staticRun(t, alg, w, 4, core.Knobs{ScalarSort: scalar})
			if got != want {
				t.Fatalf("%s scalar=%v: matches = %d, want %d", alg.Name(), scalar, got, want)
			}
		}
	}
}

func TestLazyOddThreadCounts(t *testing.T) {
	// MWay/MPass in the paper require power-of-two threads; this
	// reproduction handles any count via splitter-based key ranges.
	w := gen.MicroStatic(3000, 3000, 4, 0, 9)
	want := expected(w.R, w.S)
	for _, alg := range []core.Algorithm{NPJ{}, PRJ{}, MWay{}, MPass{}} {
		for _, threads := range []int{1, 3, 5, 7} {
			got := staticRun(t, alg, w, threads, core.Knobs{})
			if got != want {
				t.Fatalf("%s threads=%d: matches = %d, want %d", alg.Name(), threads, got, want)
			}
		}
	}
}

func TestLazyDegenerateInputs(t *testing.T) {
	cases := []struct {
		nR, nS int
	}{{0, 100}, {100, 0}, {0, 0}, {1, 1}}
	for _, c := range cases {
		w := gen.MicroStatic(c.nR, c.nS, 1, 0, 11)
		want := expected(w.R, w.S)
		for _, alg := range []core.Algorithm{NPJ{}, PRJ{}, MWay{}, MPass{}} {
			t.Run(fmt.Sprintf("%s/%dx%d", alg.Name(), c.nR, c.nS), func(t *testing.T) {
				got := staticRun(t, alg, w, 2, core.Knobs{})
				if got != want {
					t.Fatalf("matches = %d, want %d", got, want)
				}
			})
		}
	}
}

func TestLazySkewedKeys(t *testing.T) {
	// Heavy key skew concentrates most tuples in few partitions; PRJ's
	// dynamic partition queue must still produce every match.
	w := gen.MicroStatic(8000, 8000, 50, 1.6, 13)
	want := expected(w.R, w.S)
	for _, alg := range []core.Algorithm{NPJ{}, PRJ{}, MWay{}, MPass{}} {
		got := staticRun(t, alg, w, 4, core.Knobs{})
		if got != want {
			t.Fatalf("%s skewed: matches = %d, want %d", alg.Name(), got, want)
		}
	}
}

func TestLazyAllSameKey(t *testing.T) {
	// The pathological single-key workload: n^2 matches, one partition,
	// one key range.
	n := 300
	r := make(tuple.Relation, n)
	s := make(tuple.Relation, n)
	for i := range r {
		r[i] = tuple.Tuple{Key: 7, Payload: int32(i)}
		s[i] = tuple.Tuple{Key: 7, Payload: int32(i)}
	}
	want := int64(n) * int64(n)
	for _, alg := range []core.Algorithm{NPJ{}, PRJ{}, MWay{}, MPass{}} {
		res, err := core.Run(alg, r, s, 0, core.RunConfig{Threads: 4, AtRest: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want {
			t.Fatalf("%s: matches = %d, want %d", alg.Name(), res.Matches, want)
		}
	}
}

func TestLazyStreamingWaitsForWindow(t *testing.T) {
	// With a streaming clock, lazy algorithms must spend time in the
	// wait phase (window length) before joining.
	w := gen.Micro(gen.MicroConfig{RateR: 20, RateS: 20, WindowMs: 30, Dupe: 2, Seed: 1})
	want := expected(w.R, w.S)
	for _, alg := range []core.Algorithm{NPJ{}, MPass{}} {
		res, err := core.Run(alg, w.R, w.S, w.WindowMs, core.RunConfig{
			Threads: 2, NsPerSimMs: 10000, // 10µs per simulated ms
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want {
			t.Fatalf("%s: matches = %d, want %d", alg.Name(), res.Matches, want)
		}
		if res.PhaseNs[0] == 0 {
			t.Fatalf("%s: lazy run must record wait time", alg.Name())
		}
		// No match can be emitted before the window closes.
		if res.Matches > 0 && res.Progress[0].V < w.WindowMs/2 {
			t.Fatalf("%s: match before window close at %dms", alg.Name(), res.Progress[0].V)
		}
	}
}

func TestComputeSplittersDeterministic(t *testing.T) {
	w := gen.MicroStatic(1000, 1000, 2, 0, 2)
	runs := []tuple.Relation{w.R.Clone(), w.S.Clone()}
	for i := range runs {
		// splitters assume key-sorted runs
		staticSort(runs[i])
	}
	a := computeSplitters(runs, runs, 4, make([]uint32, 0, splitterScratch(4)))
	b := computeSplitters(runs, runs, 4, make([]uint32, 0, splitterScratch(4)))
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("splitter count: %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("splitters must be deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("splitters must be non-decreasing")
		}
	}
}

// staticSort is a test helper: insertion sort by key rank.
func staticSort(rel tuple.Relation) {
	for i := 1; i < len(rel); i++ {
		for j := i; j > 0 && uint32(rel[j].Key)^0x80000000 < uint32(rel[j-1].Key)^0x80000000; j-- {
			rel[j], rel[j-1] = rel[j-1], rel[j]
		}
	}
}

func TestRangeSlicesPartitionRuns(t *testing.T) {
	run := tuple.Relation{{Key: 1}, {Key: 3}, {Key: 5}, {Key: 7}, {Key: 9}}
	runs := []tuple.Relation{run}
	splitters := computeSplitters(runs, nil, 2, make([]uint32, 0, splitterScratch(2)))
	lo := rangeSlices(nil, runs, splitters, 0)
	hi := rangeSlices(nil, runs, splitters, 1)
	total := 0
	for _, s := range lo {
		total += len(s)
	}
	for _, s := range hi {
		total += len(s)
	}
	if total != len(run) {
		t.Fatalf("range slices must cover the run exactly once: %d", total)
	}
}
