package sortmerge

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

func randomRel(n int, keyDomain int32, seed uint64) tuple.Relation {
	rng := rand.New(rand.NewPCG(seed, seed^77))
	rel := make(tuple.Relation, n)
	for i := range rel {
		rel[i] = tuple.Tuple{TS: int64(i), Key: rng.Int32N(keyDomain*2) - keyDomain, Payload: int32(i)}
	}
	return rel
}

func TestBothSortsSort(t *testing.T) {
	for _, radix := range []bool{true, false} {
		for _, n := range []int{0, 1, 2, 23, 24, 1000, 4096} {
			rel := randomRel(n, 500, uint64(n)+1)
			SortByKey(rel, radix, nil, 0)
			if !Sorted(rel) {
				t.Fatalf("radix=%v n=%d: not sorted", radix, n)
			}
		}
	}
}

func TestSortsPreserveMultiset(t *testing.T) {
	f := func(keys []int32) bool {
		relA := make(tuple.Relation, len(keys))
		relB := make(tuple.Relation, len(keys))
		want := map[int32]int{}
		for i, k := range keys {
			relA[i] = tuple.Tuple{Key: k, Payload: int32(i)}
			relB[i] = relA[i]
			want[k]++
		}
		SortByKey(relA, true, nil, 0)
		SortByKey(relB, false, nil, 0)
		gotA, gotB := map[int32]int{}, map[int32]int{}
		for i := range relA {
			gotA[relA[i].Key]++
			gotB[relB[i].Key]++
		}
		if len(gotA) != len(want) || len(gotB) != len(want) {
			return false
		}
		for k, c := range want {
			if gotA[k] != c || gotB[k] != c {
				return false
			}
		}
		return Sorted(relA) && Sorted(relB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSortsHandleNegativeKeys(t *testing.T) {
	rel := tuple.Relation{{Key: 5}, {Key: -3}, {Key: 0}, {Key: -100}, {Key: 100}}
	for _, radix := range []bool{true, false} {
		r := rel.Clone()
		SortByKey(r, radix, nil, 0)
		keys := []int32{r[0].Key, r[1].Key, r[2].Key, r[3].Key, r[4].Key}
		want := []int32{-100, -3, 0, 5, 100}
		for i := range keys {
			if keys[i] != want[i] {
				t.Fatalf("radix=%v: keys=%v want %v", radix, keys, want)
			}
		}
	}
}

func TestMergeVariants(t *testing.T) {
	a := tuple.Relation{{Key: 1}, {Key: 3}, {Key: 5}}
	b := tuple.Relation{{Key: 2}, {Key: 3}, {Key: 6}}
	out := mergeAppend(make([]tuple.Tuple, 0, 6), a, b)
	if len(out) != 6 || !Sorted(out) {
		t.Fatalf("merge result %v", out)
	}
}

func TestMultiwayEqualsTwoWay(t *testing.T) {
	runs := make([]tuple.Relation, 5)
	for i := range runs {
		runs[i] = randomRel(100+i*37, 300, uint64(i)+10)
		SortByKey(runs[i], true, nil, 0)
	}
	mw := MultiwayMerge(runs, false)
	tw := TwoWayMergePassesInto(nil, nil, runs)
	if len(mw) != len(tw) {
		t.Fatalf("lengths differ: %d vs %d", len(mw), len(tw))
	}
	if !Sorted(mw) || !Sorted(tw) {
		t.Fatal("merged outputs must be sorted")
	}
	for i := range mw {
		if mw[i].Key != tw[i].Key {
			t.Fatalf("key order differs at %d: %d vs %d", i, mw[i].Key, tw[i].Key)
		}
	}
}

func TestMergeEmptyAndSingleRuns(t *testing.T) {
	if got := MultiwayMerge(nil, false); got != nil {
		t.Fatal("no runs must merge to nil")
	}
	if got := TwoWayMergePassesInto(nil, nil, []tuple.Relation{{}, {}}); got != nil {
		t.Fatal("empty runs must merge to nil")
	}
	run := tuple.Relation{{Key: 1}, {Key: 2}}
	for _, out := range [][]tuple.Tuple{
		MultiwayMerge([]tuple.Relation{run}, false),
		TwoWayMergePassesInto(nil, nil, []tuple.Relation{run}),
	} {
		if len(out) != 2 {
			t.Fatalf("single run merge: %v", out)
		}
		out[0].Key = 99 // must be a copy
	}
	if run[0].Key != 1 {
		t.Fatal("merge of a single run must copy, not alias")
	}
}

// bruteForceCount is the reference join cardinality.
func bruteForceCount(r, s tuple.Relation) int64 {
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

func TestMergeJoinCountsMatchBruteForce(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := uint64(seedRaw) + 1
		r := randomRel(int(seed%300)+10, 40, seed)
		s := randomRel(int(seed%500)+10, 40, seed+1)
		want := bruteForceCount(r, s)
		SortByKey(r, true, nil, 0)
		SortByKey(s, false, nil, 0)
		got := MergeJoin(r, s, nil, nil, 0, 0)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeJoinEmitsEveryPair(t *testing.T) {
	r := tuple.Relation{{Key: 1, Payload: 10}, {Key: 1, Payload: 11}, {Key: 2, Payload: 12}}
	s := tuple.Relation{{Key: 1, Payload: 20}, {Key: 2, Payload: 21}, {Key: 2, Payload: 22}}
	type pair struct{ a, b int32 }
	seen := map[pair]bool{}
	n := MergeJoin(r, s, func(x, y tuple.Tuple) { seen[pair{x.Payload, y.Payload}] = true }, nil, 0, 0)
	want := map[pair]bool{
		{10, 20}: true, {11, 20}: true, {12, 21}: true, {12, 22}: true,
	}
	if n != int64(len(want)) || len(seen) != len(want) {
		t.Fatalf("n=%d seen=%v", n, seen)
	}
	for p := range want {
		if !seen[p] {
			t.Fatalf("missing pair %v", p)
		}
	}
}

func TestMergeJoinEmptyInputs(t *testing.T) {
	if MergeJoin(nil, tuple.Relation{{Key: 1}}, nil, nil, 0, 0) != 0 {
		t.Fatal("join with empty side must be 0")
	}
}

func TestKeyRankOrderPreserving(t *testing.T) {
	keys := []int32{-1 << 31, -5, -1, 0, 1, 5, 1<<31 - 1}
	for i := 1; i < len(keys); i++ {
		if KeyRank(keys[i-1]) >= KeyRank(keys[i]) {
			t.Fatalf("KeyRank must preserve order: %d vs %d", keys[i-1], keys[i])
		}
	}
}

func TestSortAgainstStdlib(t *testing.T) {
	rel := randomRel(3000, 1000, 123)
	want := rel.Clone()
	sort.SliceStable(want, func(i, j int) bool { return KeyRank(want[i].Key) < KeyRank(want[j].Key) })
	got := rel.Clone()
	SortByKey(got, true, nil, 0)
	for i := range got {
		if got[i].Key != want[i].Key {
			t.Fatalf("key mismatch at %d", i)
		}
	}
}
