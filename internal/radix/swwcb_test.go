package radix

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/hashtable"
	"repro/internal/tuple"
)

// relations for the differential suite: the regimes the paper studies.
func diffRelations() map[string]tuple.Relation {
	rng := rand.New(rand.NewPCG(7, 11))
	uniform := make(tuple.Relation, 4096)
	for i := range uniform {
		uniform[i] = tuple.Tuple{Key: rng.Int32N(1 << 20), Payload: int32(i)}
	}
	// Skew: most tuples share a handful of hot keys (Figure 13's regime).
	skewed := make(tuple.Relation, 4096)
	for i := range skewed {
		k := rng.Int32N(8)
		if rng.IntN(10) == 0 {
			k = rng.Int32N(1 << 20)
		}
		skewed[i] = tuple.Tuple{Key: k, Payload: int32(i)}
	}
	// High duplication: every key repeats ~hundreds of times.
	dup := make(tuple.Relation, 4096)
	for i := range dup {
		dup[i] = tuple.Tuple{Key: rng.Int32N(16), Payload: int32(i)}
	}
	return map[string]tuple.Relation{
		"uniform": uniform,
		"skewed":  skewed,
		"highdup": dup,
		"empty":   nil,
		"single":  {tuple.Tuple{Key: 42, Payload: 1}},
	}
}

func equalParts(t *testing.T, name string, got, want []tuple.Relation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: fanout %d, want %d", name, len(got), len(want))
	}
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("%s: partition %d has %d tuples, want %d", name, p, len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			if got[p][i] != want[p][i] {
				t.Fatalf("%s: partition %d tuple %d = %+v, want %+v", name, p, i, got[p][i], want[p][i])
			}
		}
	}
}

// TestPartitionerMatchesScalar is the differential heart: the SWWCB
// scatter must produce byte-identical partitions to the scalar reference
// (partitionRehash) across key regimes and fanouts, including fanout 1,
// on both the tuple-only and the hashed entry.
func TestPartitionerMatchesScalar(t *testing.T) {
	p := NewPartitioner()
	for name, rel := range diffRelations() {
		for _, bits := range []int{0, 1, 4, 8, 12} {
			want := partitionRehash(rel, bits)
			equalParts(t, fmt.Sprintf("%s/bits=%d", name, bits), p.Partition(rel, bits, nil, 0), want)
			got, _ := p.PartitionHashed(rel, bits, nil, 0)
			equalParts(t, fmt.Sprintf("%s/bits=%d/hashed", name, bits), got, want)
		}
	}
}

// TestPartitionerHashesAligned checks the hash-once product: every
// returned hash must be the hash of the tuple at the same offset, so
// downstream InsertBatchHashed/ProbeBatchHashed never rehash wrongly.
func TestPartitionerHashesAligned(t *testing.T) {
	p := NewPartitioner()
	for name, rel := range diffRelations() {
		parts, hparts := p.PartitionHashed(rel, 6, nil, 0)
		if len(parts) != len(hparts) {
			t.Fatalf("%s: %d partitions but %d hash partitions", name, len(parts), len(hparts))
		}
		for pi := range parts {
			if len(parts[pi]) != len(hparts[pi]) {
				t.Fatalf("%s: partition %d length mismatch", name, pi)
			}
			for i, x := range parts[pi] {
				if hparts[pi][i] != hashtable.Hash(x.Key) {
					t.Fatalf("%s: partition %d hash %d misaligned", name, pi, i)
				}
			}
		}
	}
}

// TestPartitionerReuse runs the same Partitioner across inputs of varying
// shapes; stale buffer state leaking between calls would corrupt the
// second result.
func TestPartitionerReuse(t *testing.T) {
	p := NewPartitioner()
	rels := diffRelations()
	order := []string{"uniform", "empty", "highdup", "single", "skewed", "uniform"}
	for _, name := range order {
		rel := rels[name]
		for _, bits := range []int{10, 2} {
			got := p.Partition(rel, bits, nil, 0)
			equalParts(t, fmt.Sprintf("reuse/%s/bits=%d", name, bits), got, partitionRehash(rel, bits))
		}
	}
}

// TestPartitionerZeroSteadyStateAllocs proves the reusable-buffer claim:
// after warmup, repartitioning same-shaped input allocates nothing.
func TestPartitionerZeroSteadyStateAllocs(t *testing.T) {
	rel := diffRelations()["uniform"]
	p := NewPartitioner()
	p.Partition(rel, 10, nil, 0) // size the buffers
	allocs := testing.AllocsPerRun(50, func() {
		p.Partition(rel, 10, nil, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Partition allocates %.1f times per call, want 0", allocs)
	}
}

// FuzzPartitionerDiff drives the SWWCB scatter against the scalar
// reference with arbitrary key bytes, bit counts, and staging geometry:
// ftRaw picks the per-partition staging slots, dbRaw the direct-scatter
// threshold (1 forces staging at every fanout, large values force the
// direct path), so the fuzzer crosses every staged/direct leg with every
// fanout. It also checks the fused partition+build product against the
// partition contents.
func FuzzPartitionerDiff(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(4), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255}, uint8(1), uint8(4), uint8(1))
	f.Add([]byte{}, uint8(9), uint8(16), uint8(200))
	f.Fuzz(func(t *testing.T, raw []byte, bitsRaw, ftRaw, dbRaw uint8) {
		bits := int(bitsRaw % 13)
		ft := int(ftRaw % 33)   // 0 restores the default slot count
		db := 1 << (dbRaw % 16) // 1 forces staging everywhere
		if dbRaw == 0 {
			db = 0 // restore the default threshold
		}
		rel := make(tuple.Relation, 0, len(raw)/4)
		for r := bytes.NewReader(raw); ; {
			var k int32
			if err := binary.Read(r, binary.LittleEndian, &k); err != nil {
				break
			}
			rel = append(rel, tuple.Tuple{Key: k, Payload: int32(len(rel))})
		}
		want := partitionRehash(rel, bits)
		p := NewPartitioner()
		p.flushT, p.directBelow = ft, db
		got := p.Partition(rel, bits, nil, 0)
		if len(got) != len(want) {
			t.Fatalf("fanout %d, want %d", len(got), len(want))
		}
		for pi := range want {
			if len(got[pi]) != len(want[pi]) {
				t.Fatalf("partition %d has %d tuples, want %d", pi, len(got[pi]), len(want[pi]))
			}
			for i := range want[pi] {
				if got[pi][i] != want[pi][i] {
					t.Fatalf("partition %d tuple %d differs", pi, i)
				}
			}
		}
		// Hashed product: hashes must align with the partitioned tuples.
		ph := NewPartitioner()
		ph.flushT, ph.directBelow = ft, db
		hparts, hhash := ph.PartitionHashed(rel, bits, nil, 0)
		for pi := range want {
			for i := range want[pi] {
				if hparts[pi][i] != want[pi][i] {
					t.Fatalf("hashed partition %d tuple %d differs", pi, i)
				}
				if hhash[pi][i] != hashtable.Hash(want[pi][i].Key) {
					t.Fatalf("partition %d hash %d misaligned", pi, i)
				}
			}
		}
		// Fused product: per-partition tables sized and filled like the
		// partitions themselves.
		pf := NewPartitioner()
		pf.flushT, pf.directBelow = ft, db
		tabs := pf.PartitionBuild(rel, bits, func(n int) *hashtable.Table {
			tab := hashtable.New(n)
			tab.SetShift(bits)
			return tab
		})
		for pi := range want {
			if len(want[pi]) == 0 {
				if tabs[pi] != nil {
					t.Fatalf("partition %d empty but fused table non-nil", pi)
				}
				continue
			}
			if tabs[pi] == nil || tabs[pi].Size() != int64(len(want[pi])) {
				t.Fatalf("partition %d fused table missing or missized", pi)
			}
		}
	})
}

// partitionRehash is the scalar reference the Partitioner is compared
// against, and the benchmark baseline: the pre-kernel histogram + dense
// prefix-sum scatter with fresh scratch per call, hashing every key twice
// — once in the histogram pass and again in the scatter.
func partitionRehash(rel tuple.Relation, bits int) []tuple.Relation {
	fanout := 1 << bits
	mask := uint32(fanout - 1)
	hist := make([]int, fanout)
	for i := range rel {
		hist[hashtable.Hash(rel[i].Key)&mask]++
	}
	pos := make([]int, fanout)
	sum := 0
	offs := make([]int, fanout)
	for p, c := range hist {
		offs[p] = sum
		pos[p] = sum
		sum += c
	}
	out := make(tuple.Relation, len(rel))
	for i := range rel {
		p := hashtable.Hash(rel[i].Key) & mask // the rehash
		out[pos[p]] = rel[i]
		pos[p]++
	}
	parts := make([]tuple.Relation, fanout)
	for p := 0; p < fanout; p++ {
		parts[p] = out[offs[p] : offs[p]+hist[p]]
	}
	return parts
}

// BenchmarkKernelPartition is the satellite regression benchmark at the
// production PRJ regime (2^20 tuples, 2^12-way fanout): rehash is the
// pre-kernel scatter with fresh scratch, swwcb the tuned Partitioner
// kernel (pooled buffers, direct scatter at this fanout per the measured
// geometry). scripts/bench.sh compares them into BENCH_3.json; swwcb must
// beat rehash.
func BenchmarkKernelPartition(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 5))
	rel := make(tuple.Relation, 1<<20)
	for i := range rel {
		rel[i] = tuple.Tuple{Key: rng.Int32N(1 << 30), Payload: int32(i)}
	}
	const bits = 12
	b.Run("rehash", func(b *testing.B) {
		b.SetBytes(int64(len(rel)) * tupleBytes)
		for i := 0; i < b.N; i++ {
			partitionRehash(rel, bits)
		}
	})
	b.Run("swwcb", func(b *testing.B) {
		p := NewPartitioner()
		b.SetBytes(int64(len(rel)) * tupleBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Partition(rel, bits, nil, 0)
		}
	})
}
