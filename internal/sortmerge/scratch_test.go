package sortmerge

import (
	"slices"
	"testing"

	"repro/internal/tuple"
)

// sortedRuns returns k key-sorted runs of uneven lengths (one empty).
func sortedRuns(k int, seed uint64) []tuple.Relation {
	runs := make([]tuple.Relation, k)
	for i := range runs {
		n := 0
		if i != 1 {
			n = 200 + 137*i
		}
		runs[i] = randomRel(n, 300, seed+uint64(i))
		SortByKey(runs[i], false, nil, 0)
	}
	return runs
}

// TestScratchAndIntoFormsMatchAllocatingForms: the scratch-taking sort and
// the buffer-taking merges are the allocating entry points' own bodies, so
// they must produce identical output — stable order included — for every
// run count (one pass, ping-pong, odd leftovers), in both kernel variants,
// with exact, oversized, undersized and nil buffers, and leave every input
// run intact.
func TestScratchAndIntoFormsMatchAllocatingForms(t *testing.T) {
	for _, simd := range []bool{false, true} {
		rel := randomRel(5000, 700, 3)
		want := rel.Clone()
		SortByKey(want, simd, nil, 0)
		got := rel.Clone()
		SortByKeyScratch(got, make([]tuple.Tuple, len(got)+9), simd, nil, 0)
		if !slices.Equal(got, want) {
			t.Fatalf("simd=%v: SortByKeyScratch differs from SortByKey", simd)
		}

		for k := 0; k <= 7; k++ {
			runs := sortedRuns(k, 50)
			keep := make([]tuple.Relation, k)
			total := 0
			for i, r := range runs {
				keep[i] = r.Clone()
				total += len(r)
			}
			wantM, wantP := MultiwayMerge(runs, simd), TwoWayMergePasses(runs, simd)
			if !Sorted(wantM) || !Sorted(wantP) || len(wantM) != total || len(wantP) != total {
				t.Fatalf("simd=%v k=%d: allocating merges are wrong", simd, k)
			}
			for _, capacity := range []int{0, total / 2, total, total + 50} {
				a := make([]tuple.Tuple, 3, capacity+3)[3:] // capacity, not length, is what counts
				b := make([]tuple.Tuple, 0, capacity)
				if got := MultiwayMergeInto(a, runs, simd); !slices.Equal(got, wantM) {
					t.Fatalf("simd=%v k=%d cap=%d: MultiwayMergeInto differs", simd, k, capacity)
				}
				if got := TwoWayMergePassesInto(a, b, runs, simd); !slices.Equal(got, wantP) {
					t.Fatalf("simd=%v k=%d cap=%d: TwoWayMergePassesInto differs", simd, k, capacity)
				}
				for i := range runs {
					if !slices.Equal(runs[i], keep[i]) {
						t.Fatalf("simd=%v k=%d cap=%d: a merge wrote to input run %d", simd, k, capacity, i)
					}
				}
			}
		}
	}
}

// TestScratchAndIntoFormsAllocateNothingPerTuple pins what the pooled sort
// joins rely on: with sized buffers the sort allocates nothing and the
// merges only their k-sized bookkeeping.
func TestScratchAndIntoFormsAllocateNothingPerTuple(t *testing.T) {
	rel := randomRel(20000, 5000, 8)
	work := make([]tuple.Tuple, len(rel))
	scratch := make([]tuple.Tuple, len(rel))
	for _, simd := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(5, func() {
			copy(work, rel)
			SortByKeyScratch(work, scratch, simd, nil, 0)
		}); allocs != 0 {
			t.Fatalf("simd=%v: SortByKeyScratch allocates %.0f times", simd, allocs)
		}
	}
	runs := sortedRuns(5, 90)
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	a, b := make([]tuple.Tuple, 0, total), make([]tuple.Tuple, 0, total)
	// The live-run list, and the heap of the multiway merge.
	if allocs := testing.AllocsPerRun(5, func() { MultiwayMergeInto(a, runs, false) }); allocs > 2 {
		t.Fatalf("MultiwayMergeInto allocates %.0f times with a sized buffer", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { TwoWayMergePassesInto(a, b, runs, false) }); allocs > 1 {
		t.Fatalf("TwoWayMergePassesInto allocates %.0f times with sized buffers", allocs)
	}
}
