package tuple_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/tuple"
)

// summarizeReference is Summarize as it was before the map-free profile:
// a Go map of key frequencies, sort.Sort over the counts, math.Log per
// rank and per count. Summarize must return its Stats to the last bit —
// ADAPTIVE's choices hang on KeySkew and Dupe thresholds.
func summarizeReference(r tuple.Relation) tuple.Stats {
	s := tuple.Stats{Tuples: len(r)}
	if len(r) == 0 {
		return s
	}
	freq := make(map[int32]int, len(r))
	minTS, maxTS := r[0].TS, r[0].TS
	for _, t := range r {
		freq[t.Key]++
		if t.TS < minTS {
			minTS = t.TS
		}
		if t.TS > maxTS {
			maxTS = t.TS
		}
	}
	s.UniqueKey = len(freq)
	s.Dupe = float64(len(r)) / float64(len(freq))
	s.SpanMs = maxTS - minTS + 1
	s.Rate = float64(len(r)) / float64(s.SpanMs)
	s.KeySkew = estimateZipfReference(freq)
	return s
}

func estimateZipfReference(freq map[int32]int) float64 {
	if len(freq) < 2 {
		return 0
	}
	counts := make([]int, 0, len(freq))
	for _, c := range freq {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	var sx, sy, sxx, sxy float64
	n := float64(len(counts))
	for i, c := range counts {
		x := math.Log(float64(i + 1))
		y := math.Log(float64(c))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	theta := -(n*sxy - sx*sy) / den
	if theta < 0 {
		theta = 0
	}
	return theta
}

// sameStats compares bit for bit: == would let +0/-0 through and reject
// equal NaNs.
func sameStats(a, b tuple.Stats) bool {
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Tuples == b.Tuples && a.UniqueKey == b.UniqueKey && a.SpanMs == b.SpanMs &&
		bitsEq(a.Dupe, b.Dupe) && bitsEq(a.Rate, b.Rate) && bitsEq(a.KeySkew, b.KeySkew)
}

// checkAgainstReference holds Summarize, SummarizeScratch over a dirty
// scratch of exactly the documented size, and SummarizeScratch over one
// that is too small to the reference.
func checkAgainstReference(t *testing.T, name string, r tuple.Relation) {
	t.Helper()
	want := summarizeReference(r)
	if got := r.Summarize(); !sameStats(got, want) {
		t.Errorf("%s: Summarize = %+v, reference %+v", name, got, want)
	}
	dirty := make([]uint32, scratchFor(len(r)))
	for i := range dirty {
		dirty[i] = 0xdeadbeef + uint32(i)
	}
	if got := r.SummarizeScratch(dirty[:0]); !sameStats(got, want) {
		t.Errorf("%s: SummarizeScratch(dirty) = %+v, reference %+v", name, got, want)
	}
	if got := r.SummarizeScratch(dirty[: 0 : len(dirty)/2]); !sameStats(got, want) {
		t.Errorf("%s: SummarizeScratch(short) = %+v, reference %+v", name, got, want)
	}
}

// scratchFor is the capacity SummarizeScratch documents as enough for n
// tuples: twice the smallest power of two >= 2n.
func scratchFor(n int) int {
	m := 1
	for m < 2*n {
		m <<= 1
	}
	return 2 * m
}

func TestSummarizeEqualsReference(t *testing.T) {
	for _, name := range gen.Names() {
		w, err := gen.ByName(name, 0.01, 7)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, name+"/R", w.R)
		checkAgainstReference(t, name+"/S", w.S)
		checkAgainstReference(t, name+"/R[:4096]", w.R[:min(len(w.R), 4096)])
		checkAgainstReference(t, name+"/S[:4096]", w.S[:min(len(w.S), 4096)])
	}
	for _, skew := range []float64{0, 0.5, 1.0, 1.5} {
		for _, dupe := range []int{1, 4, 100} {
			w := gen.MicroStatic(6000, 4096, dupe, skew, 11)
			name := fmt.Sprintf("MicroStatic/skew=%v/dupe=%d", skew, dupe)
			checkAgainstReference(t, name+"/R", w.R)
			checkAgainstReference(t, name+"/S", w.S)
		}
		w := gen.Micro(gen.MicroConfig{RateR: 40, RateS: 10, WindowMs: 300, Dupe: 8, KeySkew: skew, Seed: 5})
		checkAgainstReference(t, fmt.Sprintf("Micro/skew=%v/R", skew), w.R)
		checkAgainstReference(t, fmt.Sprintf("Micro/skew=%v/S", skew), w.S)
	}
	fk := gen.MicroFK(20, 200, 1.0, 3)
	checkAgainstReference(t, "MicroFK/R", fk.R)
	checkAgainstReference(t, "MicroFK/S", fk.S)

	allDistinct := make(tuple.Relation, 5000)
	oneKey := make(tuple.Relation, 5000)
	extremes := tuple.Relation{
		{TS: math.MaxInt64, Key: math.MinInt32}, {TS: math.MinInt64, Key: math.MaxInt32},
		{TS: 0, Key: 0}, {TS: -1, Key: -1}, {TS: 1, Key: math.MinInt32},
	}
	for i := range allDistinct {
		allDistinct[i] = tuple.Tuple{TS: int64(i / 7), Key: int32(i) - 2500}
		oneKey[i] = tuple.Tuple{TS: int64(5000 - i), Key: -9}
	}
	checkAgainstReference(t, "empty", nil)
	checkAgainstReference(t, "single", tuple.Relation{{TS: 3, Key: 0}})
	checkAgainstReference(t, "oneKey", oneKey)
	checkAgainstReference(t, "allDistinct", allDistinct)
	checkAgainstReference(t, "extremes", extremes)
	// Keys that all hash to one slot chain: a multiplicative hash keeps the
	// high bits, so multiples of 2^16 in a small table collide heavily.
	colliding := make(tuple.Relation, 300)
	for i := range colliding {
		colliding[i] = tuple.Tuple{TS: int64(i), Key: int32(i%37) << 16}
	}
	checkAgainstReference(t, "colliding", colliding)
}

// TestSummarizeScratchAllocatesNothing: over scratch of the documented
// size — what ADAPTIVE takes from the pool for its 4096-tuple prefixes —
// the profile is allocation-free, whatever the skew.
func TestSummarizeScratchAllocatesNothing(t *testing.T) {
	for _, skew := range []float64{0, 1.5} {
		r := gen.MicroStatic(4096, 1, 4, skew, 2).R
		scratch := make([]uint32, 0, 4*len(r))
		if n := testing.AllocsPerRun(10, func() { r.SummarizeScratch(scratch) }); n != 0 {
			t.Errorf("skew %v: SummarizeScratch allocates %v times over sufficient scratch", skew, n)
		}
	}
}

// FuzzSummarize is differential against the reference: 7 bytes a tuple —
// a key byte and a domain selector so that duplicates, collisions and
// wide keys all occur, and five timestamp bytes.
func FuzzSummarize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 9, 0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint64(make([]byte, 6), math.MaxUint64))
	rng := rand.New(rand.NewPCG(1, 2))
	big := make([]byte, 7*700)
	for i := range big {
		big[i] = byte(rng.IntN(256)) >> (i % 3)
	}
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		rel := make(tuple.Relation, 0, len(data)/7)
		for ; len(data) >= 7; data = data[7:] {
			key := int32(int8(data[0])) << (data[1] % 25)
			ts := int64(int8(data[2]))<<32 | int64(binary.LittleEndian.Uint32(data[3:7]))
			if data[1] >= 250 {
				ts <<= 24
			}
			rel = append(rel, tuple.Tuple{TS: ts, Key: key})
		}
		checkAgainstReference(t, "fuzz", rel)
	})
}
