package radix

import (
	"math/rand/v2"
	"testing"

	"repro/internal/hashtable"
	"repro/internal/tuple"
)

// buildUnfused is the two-pass reference the fused kernel replaces:
// PartitionHashed into contiguous partition arrays, then one
// InsertBatchHashed per non-empty partition. Tables come from newTable so
// tests and benchmarks can recycle them exactly like the fused path.
func buildUnfused(p *Partitioner, rel tuple.Relation, bits int, newTable func(n int) *hashtable.Table) []*hashtable.Table {
	parts, hparts := p.PartitionHashed(rel, bits, nil, 0)
	tabs := make([]*hashtable.Table, len(parts))
	for pi := range parts {
		if len(parts[pi]) == 0 {
			continue
		}
		t := newTable(len(parts[pi]))
		t.InsertBatchHashed(parts[pi], hparts[pi])
		tabs[pi] = t
	}
	return tabs
}

func freshTable(bits int) func(n int) *hashtable.Table {
	return func(n int) *hashtable.Table {
		t := hashtable.New(n)
		t.SetShift(bits)
		return t
	}
}

// tableRecycler hands out Reset pooled tables in call order. PartitionBuild
// calls newTable once per non-empty partition in partition order, so on a
// repeated input the i-th call always receives a table already sized for
// that partition — the steady state the zero-alloc test and the benchmark
// pin down.
type tableRecycler struct {
	tabs []*hashtable.Table
	next int
	bits int
}

func (r *tableRecycler) rewind() { r.next = 0 }

func (r *tableRecycler) get(n int) *hashtable.Table {
	if r.next < len(r.tabs) {
		t := r.tabs[r.next]
		r.next++
		t.Grow(n)
		t.Reset()
		t.SetShift(r.bits)
		return t
	}
	t := hashtable.New(n)
	t.SetShift(r.bits)
	r.tabs = append(r.tabs, t)
	r.next++
	return t
}

func fusedRel(n int, domain int32) tuple.Relation {
	rng := rand.New(rand.NewPCG(11, 13))
	rel := make(tuple.Relation, n)
	for i := range rel {
		rel[i] = tuple.Tuple{Key: rng.Int32N(domain), Payload: int32(i)}
	}
	return rel
}

// TestPartitionBuildMatchesUnfused pins the fused kernel's contract: for
// every partition, the fused table and the unfused table contain the same
// tuples in the same insertion order, so probing both with the same batch
// yields identical (stored, probe) pair sequences.
func TestPartitionBuildMatchesUnfused(t *testing.T) {
	for _, tc := range []struct {
		n      int
		domain int32
		bits   int
	}{
		{0, 1, 0},
		{1, 1, 0},
		{1000, 50, 0}, // duplicate-heavy, single partition
		{1000, 1 << 20, 4},
		{5000, 300, 6}, // duplicates spread over 64 partitions
		{20000, 1 << 30, 11},
	} {
		rel := fusedRel(tc.n, tc.domain)
		want := buildUnfused(NewPartitioner(), rel, tc.bits, freshTable(tc.bits))
		got := NewPartitioner().PartitionBuild(rel, tc.bits, freshTable(tc.bits))
		if len(got) != len(want) {
			t.Fatalf("n=%d bits=%d: fanout %d, want %d", tc.n, tc.bits, len(got), len(want))
		}
		probes := fusedRel(2048, tc.domain+tc.domain/2+1)
		pparts := NewPartitioner().Partition(probes, tc.bits, nil, 0)
		for pi := range want {
			if (got[pi] == nil) != (want[pi] == nil) {
				t.Fatalf("n=%d bits=%d part=%d: nil mismatch", tc.n, tc.bits, pi)
			}
			if want[pi] == nil {
				continue
			}
			if got[pi].Size() != want[pi].Size() {
				t.Fatalf("n=%d bits=%d part=%d: size %d, want %d", tc.n, tc.bits, pi, got[pi].Size(), want[pi].Size())
			}
			// Fresh tables own exactly the overflow buckets in their chains.
			if got[pi].MemBytes() != want[pi].MemBytes() {
				t.Fatalf("n=%d bits=%d part=%d: footprint %d, want %d", tc.n, tc.bits, pi, got[pi].MemBytes(), want[pi].MemBytes())
			}
			wdst, wn := want[pi].ProbeBatch(pparts[pi], nil)
			gdst, gn := got[pi].ProbeBatch(pparts[pi], nil)
			if gn != wn || len(gdst) != len(wdst) {
				t.Fatalf("n=%d bits=%d part=%d: %d matches, want %d", tc.n, tc.bits, pi, gn, wn)
			}
			for j := range wdst {
				if gdst[j] != wdst[j] {
					t.Fatalf("n=%d bits=%d part=%d pair-slot=%d: %v, want %v", tc.n, tc.bits, pi, j, gdst[j], wdst[j])
				}
			}
		}
	}
}

// TestPartitionBuildZeroAlloc: with a warmed Partitioner and recycled
// tables, the fused kernel allocates nothing per window.
func TestPartitionBuildZeroAlloc(t *testing.T) {
	rel := fusedRel(50_000, 1<<22)
	const bits = 8
	p := NewPartitioner()
	rec := &tableRecycler{bits: bits}
	run := func() {
		rec.rewind()
		p.PartitionBuild(rel, bits, rec.get)
	}
	run() // warm: size scratch, tables, and overflow free lists
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("fused partition+build allocates %.1f per run, want 0", avg)
	}
}

// BenchmarkKernelPartitionBuild is the bench.sh partition_build kernel:
// unfused is the two-pass baseline (scatter to partition arrays, then
// batch-insert each into its table), fused the single-pass kernel. Both
// recycle tables and scratch, so the delta is the intermediate partition
// array's write+re-read traffic that fusion deletes.
//
// The regime is a window-sized build (2^14 tuples, 2^8-way) — the one the
// fused kernel is gated to in PRJ (FuseBuildBelow): fusion wins only
// while the whole per-partition directory set stays cache-resident;
// beyond ~2^15 build tuples the fused scatter's random directory writes
// lose to the unfused pipeline's cache-resident per-partition builds
// (PERFORMANCE.md §"Winning back the kernels").
func BenchmarkKernelPartitionBuild(b *testing.B) {
	rel := fusedRel(1<<14, 1<<30)
	const bits = 8
	b.Run("unfused", func(b *testing.B) {
		p := NewPartitioner()
		rec := &tableRecycler{bits: bits}
		build := func() {
			parts, hparts := p.PartitionHashed(rel, bits, nil, 0)
			rec.rewind()
			for pi := range parts {
				if len(parts[pi]) == 0 {
					continue
				}
				t := rec.get(len(parts[pi]))
				t.InsertBatchHashed(parts[pi], hparts[pi])
			}
		}
		build()
		b.SetBytes(int64(len(rel)) * tupleBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			build()
		}
	})
	b.Run("fused", func(b *testing.B) {
		p := NewPartitioner()
		rec := &tableRecycler{bits: bits}
		build := func() {
			rec.rewind()
			p.PartitionBuild(rel, bits, rec.get)
		}
		build()
		b.SetBytes(int64(len(rel)) * tupleBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			build()
		}
	})
}
