package sortmerge

import (
	"math/rand/v2"
	"testing"

	"repro/internal/tuple"
)

func benchRel(n int, domain int32) tuple.Relation {
	rng := rand.New(rand.NewPCG(1, 2))
	rel := make(tuple.Relation, n)
	for i := range rel {
		rel[i] = tuple.Tuple{Key: rng.Int32N(domain), Payload: int32(i)}
	}
	return rel
}

// benchSort is the sort kernel's two variants over rel: the scalar merge
// sort (Figure 21's foil, the baseline) and the radix sort the joins run.
// Each iteration restores the unsorted input into a preallocated buffer,
// timed alike in both variants.
func benchSort(b *testing.B, rel tuple.Relation) {
	work, scratch := make([]tuple.Tuple, len(rel)), make([]tuple.Tuple, len(rel))
	for _, v := range []struct {
		name  string
		radix bool
	}{{"scalar", false}, {"radix", true}} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(rel)) * tuple.Bytes)
			for i := 0; i < b.N; i++ {
				copy(work, rel)
				SortByKeyScratch(work, scratch, v.radix, nil, 0)
			}
		})
	}
}

// BenchmarkKernelSort is one MWAY worker's sort on rest_unique: 2^19
// tuples with keys below 2^20, past L2.
func BenchmarkKernelSort(b *testing.B) { benchSort(b, benchRel(1<<19, 1<<20)) }

// BenchmarkKernelSortSmall is a PMJ seal: 4096 tuples with keys below
// 2^16, wire_windows' key domain.
func BenchmarkKernelSortSmall(b *testing.B) { benchSort(b, benchRel(4096, 1<<16)) }

func BenchmarkMultiwayMerge(b *testing.B) {
	runs := make([]tuple.Relation, 8)
	for i := range runs {
		runs[i] = benchRel(16_384, 1<<20)
		SortByKey(runs[i], true, nil, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultiwayMerge(runs, true)
	}
}

func BenchmarkTwoWayMergePasses(b *testing.B) {
	runs := make([]tuple.Relation, 8)
	for i := range runs {
		runs[i] = benchRel(16_384, 1<<20)
		SortByKey(runs[i], true, nil, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TwoWayMergePassesInto(nil, nil, runs)
	}
}

func BenchmarkMergeJoinUnique(b *testing.B) {
	r := benchRel(65_536, 1<<20)
	s := benchRel(65_536, 1<<20)
	SortByKey(r, true, nil, 0)
	SortByKey(s, true, nil, 0)
	b.SetBytes(int64(len(r)+len(s)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeJoin(r, s, nil, nil, 0, 0)
	}
}

func BenchmarkMergeJoinHighDupe(b *testing.B) {
	// Duplicate runs expand as nested loops: the cache-friendly
	// sequential revisits of Section 5.4.
	rng := rand.New(rand.NewPCG(3, 4))
	r := make(tuple.Relation, 20_000)
	s := make(tuple.Relation, 20_000)
	for i := range r {
		r[i] = tuple.Tuple{Key: rng.Int32N(200)}
		s[i] = tuple.Tuple{Key: rng.Int32N(200)}
	}
	SortByKey(r, true, nil, 0)
	SortByKey(s, true, nil, 0)
	b.ResetTimer()
	var matches int64
	for i := 0; i < b.N; i++ {
		matches = MergeJoin(r, s, func(_, _ tuple.Tuple) {}, nil, 0, 0)
	}
	b.ReportMetric(float64(matches), "matches")
}
