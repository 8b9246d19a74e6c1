package oracle

import (
	"testing"

	iawj "repro"
	"repro/internal/tuple"
)

func TestMetamorphicAllAlgorithms(t *testing.T) {
	// One streaming and one high-duplication shape: symmetry, window
	// split, and key relabeling must hold for every algorithm.
	for _, wl := range []string{WMicro, WHighDup} {
		for _, alg := range iawj.Algorithms() {
			c := Case{Algorithm: alg, Workload: wl, Threads: 2, Seed: 11, Pooled: true}
			if err := CheckMetamorphic(c); err != nil {
				t.Fatalf("%v", err)
			}
		}
	}
}

func TestMetamorphicEmptyInputs(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		c := Case{Algorithm: "SHJ_JM", Workload: WEmpty, Threads: 2, Seed: seed}
		if err := CheckMetamorphic(c); err != nil {
			t.Fatalf("%v", err)
		}
	}
}

func TestRelabelKeyIsBijective(t *testing.T) {
	// An odd multiplier modulo 2^32 permutes int32; spot-check for
	// collisions over a dense range plus extremes, and that unrelabel
	// inverts it there.
	seen := make(map[int32]int32, 1<<16)
	probe := func(k int32) {
		v := relabelKey(k)
		if prev, ok := seen[v]; ok && prev != k {
			t.Fatalf("relabelKey collision: %d and %d both map to %d", prev, k, v)
		}
		seen[v] = k
		if back := unrelabel(tuple.JoinResult{Key: v}).Key; back != k {
			t.Fatalf("unrelabel(relabelKey(%d)) = %d", k, back)
		}
	}
	for k := int32(-32768); k < 32768; k++ {
		probe(k)
	}
	probe(1<<31 - 1)
	probe(-1 << 31)
}

// TestRelabelComparisonChecksKeys feeds the relabel check's sink the base
// results with their keys relabeled, once faithfully and once with one key
// off the bijection. Payloads and timestamps agree in both, so a keyless
// comparison accepts both; the keys mapped back must tell them apart.
func TestRelabelComparisonChecksKeys(t *testing.T) {
	results := randomResults(300, 41)
	var base Digest
	for _, jr := range results {
		base.AddResult(jr)
	}
	digest := func(bad int) Digest {
		m := &mappedSink{back: unrelabel}
		for i, jr := range results {
			jr.Key = relabelKey(jr.Key)
			if i == bad {
				jr.Key++
			}
			m.emit(jr)
		}
		return m.Digest()
	}
	if got := digest(-1); got != base {
		t.Fatalf("faithful relabeling: %s, want %s", got.Full, base.Full)
	}
	if got := digest(123); got.Full.Equal(base.Full) {
		t.Fatal("a result whose key is off the bijection passed the relabel comparison")
	}
}

func TestSplitAt(t *testing.T) {
	rel := tuple.Relation{{TS: 0}, {TS: 1}, {TS: 1}, {TS: 5}}
	lo, hi := splitAt(rel, 1)
	if len(lo) != 1 || len(hi) != 3 {
		t.Fatalf("splitAt(1): %d/%d", len(lo), len(hi))
	}
	lo, hi = splitAt(rel, 100)
	if len(lo) != 4 || len(hi) != 0 {
		t.Fatalf("splitAt(100): %d/%d", len(lo), len(hi))
	}
	lo, hi = splitAt(nil, 3)
	if len(lo) != 0 || len(hi) != 0 {
		t.Fatalf("splitAt(nil): %d/%d", len(lo), len(hi))
	}
}
