package hashtable

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/tuple"
)

// diffKeys builds the key regimes the paper studies: uniform, skewed
// (hot keys), high duplication, empty, and a single tuple.
func diffKeySets() map[string][]tuple.Tuple {
	rng := rand.New(rand.NewPCG(13, 17))
	mk := func(n int, key func(i int) int32) []tuple.Tuple {
		out := make([]tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.Tuple{Key: key(i), Payload: int32(i)}
		}
		return out
	}
	return map[string][]tuple.Tuple{
		"uniform": mk(3000, func(i int) int32 { return rng.Int32N(1 << 20) }),
		"skewed": mk(3000, func(i int) int32 {
			if rng.IntN(10) == 0 {
				return rng.Int32N(1 << 20)
			}
			return rng.Int32N(4)
		}),
		"highdup": mk(3000, func(i int) int32 { return rng.Int32N(8) }),
		"empty":   nil,
		"single":  {tuple.Tuple{Key: 42, Payload: 7}},
	}
}

// scalarPairs collects (stored, probe) pairs through the scalar closure
// API — the reference the batch kernel must reproduce exactly.
func scalarPairs(tab *Table, probes []tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	for _, p := range probes {
		pv := p
		tab.Probe(p.Key, func(s tuple.Tuple) { out = append(out, s, pv) })
	}
	return out
}

func hashesOf(xs []tuple.Tuple) []uint32 {
	hs := make([]uint32, len(xs))
	for i := range xs {
		hs[i] = Hash(xs[i].Key)
	}
	return hs
}

func equalPairs(t *testing.T, name string, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pair tuples, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair tuple %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// TestBatchMatchesScalar is the build+probe differential: a batch-built
// table must produce the same (stored, probe) pairs, in the same order,
// as a scalar-built table probed through the closure API.
func TestBatchMatchesScalar(t *testing.T) {
	sets := diffKeySets()
	for buildName, build := range sets {
		for probeName, probes := range sets {
			name := buildName + "->" + probeName
			scalarTab := New(len(build))
			for _, x := range build {
				scalarTab.Insert(x)
			}
			batchTab := New(len(build))
			batchTab.InsertBatch(build)
			if scalarTab.Size() != batchTab.Size() {
				t.Fatalf("%s: batch table size %d, scalar %d", name, batchTab.Size(), scalarTab.Size())
			}

			want := scalarPairs(scalarTab, probes)
			got, n := batchTab.ProbeBatch(probes, nil)
			if n*2 != len(got) {
				t.Fatalf("%s: match count %d does not cover %d pair tuples", name, n, len(got))
			}
			equalPairs(t, name, got, want)
		}
	}
}

// TestBatchHashedMatchesScalar drives the *Hashed fast path with
// precomputed hashes and a nonzero shift, as the radix join does.
func TestBatchHashedMatchesScalar(t *testing.T) {
	sets := diffKeySets()
	for _, shift := range []int{0, 6, 10} {
		build, probes := sets["highdup"], sets["skewed"]
		ref := New(len(build))
		ref.SetShift(shift)
		for _, x := range build {
			ref.Insert(x)
		}
		tab := New(len(build))
		tab.SetShift(shift)
		tab.InsertBatchHashed(build, hashesOf(build))
		want := scalarPairs(ref, probes)
		got, _ := tab.ProbeBatchHashed(probes, hashesOf(probes), nil)
		equalPairs(t, "hashed", got, want)
	}
}

// sortedPairs returns the (stored, probe) pairs of ps in a canonical
// order, for comparing probe results as multisets.
func sortedPairs(ps []tuple.Tuple) [][2]tuple.Tuple {
	out := make([][2]tuple.Tuple, 0, len(ps)/2)
	for ; len(ps) >= 2; ps = ps[2:] {
		out = append(out, [2]tuple.Tuple{ps[0], ps[1]})
	}
	slices.SortFunc(out, func(a, b [2]tuple.Tuple) int {
		return cmp.Or(
			cmp.Compare(a[1].Payload, b[1].Payload), cmp.Compare(a[0].Payload, b[0].Payload),
			cmp.Compare(a[1].Key, b[1].Key), cmp.Compare(a[0].Key, b[0].Key))
	})
	return out
}

// TestSharedAndLockFreeBatchCounts checks Shared's batch kernels against
// the Table reference where exact order is not defined: after a
// two-writer build the chain order depends on the interleaving, so the
// pairs must agree as a multiset (single-writer builds are compared in
// exact order by TestProbePrefetchDistanceDiff). The name predates the
// removal of the lock-free table.
func TestSharedAndLockFreeBatchCounts(t *testing.T) {
	sets := diffKeySets()
	build, probes := sets["skewed"], sets["highdup"]
	ref := New(len(build))
	ref.InsertBatch(build)
	wantPairs, want := ref.ProbeBatch(probes, nil)

	sh := NewShared(len(build))
	var wg sync.WaitGroup
	for _, half := range [][]tuple.Tuple{build[:len(build)/2], build[len(build)/2:]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.InsertBatch(half)
		}()
	}
	wg.Wait()
	if sh.Size() != int64(len(build)) {
		t.Fatalf("Shared holds %d tuples after a two-writer build, want %d", sh.Size(), len(build))
	}
	pairs, n := sh.ProbeBatch(probes, nil)
	if n != want || len(pairs) != 2*want {
		t.Fatalf("Shared batch found %d matches, want %d", n, want)
	}
	if !slices.Equal(sortedPairs(pairs), sortedPairs(wantPairs)) {
		t.Fatal("Shared two-writer build: pair multiset differs from the single-writer Table's")
	}
}

// TestResetReuse proves the Reset protocol: a reused table must behave
// exactly like a fresh one, and steady-state reuse must not grow memory.
func TestResetReuse(t *testing.T) {
	sets := diffKeySets()
	tab := New(3000)
	var memAfterFirst int64
	for round, name := range []string{"highdup", "uniform", "highdup", "skewed"} {
		build := sets[name]
		tab.Reset()
		tab.InsertBatch(build)
		fresh := New(3000)
		fresh.InsertBatch(build)
		got, _ := tab.ProbeBatch(build, nil)
		want, _ := fresh.ProbeBatch(build, nil)
		equalPairs(t, "reset/"+name, got, want)
		if round == 0 {
			memAfterFirst = tab.MemBytes()
		}
	}
	tab.Reset()
	tab.InsertBatch(sets["highdup"])
	if tab.MemBytes() > memAfterFirst+int64(bucketBytes) {
		t.Fatalf("reused table grew from %d to %d bytes on identical input", memAfterFirst, tab.MemBytes())
	}
}

// TestGrowKeepsFreeList checks Grow preserves recycled overflow buckets
// while resizing the directory.
func TestGrowKeepsFreeList(t *testing.T) {
	tab := New(8)
	for i := 0; i < 256; i++ {
		tab.Insert(tuple.Tuple{Key: 5, Payload: int32(i)}) // one long chain
	}
	tab.Reset()
	before := tab.MemBytes()
	tab.Grow(1024)
	if tab.DirBuckets() < 512 {
		t.Fatalf("Grow(1024) left directory at %d buckets", tab.DirBuckets())
	}
	if tab.MemBytes() <= before {
		t.Fatal("Grow must keep the overflow free list while growing the directory")
	}
	fill := make([]tuple.Tuple, 64)
	for i := range fill {
		fill[i] = tuple.Tuple{Key: int32(100 + i), Payload: int32(i)}
	}
	tab.InsertBatch(fill)
	if got := tab.Probe(5, nil); got != 0 {
		t.Fatalf("grown table leaked %d stale key-5 tuples", got)
	}
	if got := tab.Probe(100, nil); got != 1 {
		t.Fatalf("grown table found %d matches for a fresh key, want 1", got)
	}
}

// TestZeroAllocSteadyState is the kernel-level allocation contract: once
// a pooled table has sized its chains and the pair buffer has grown, a
// window's build+probe cycle allocates nothing — on Table and on Shared.
func TestZeroAllocSteadyState(t *testing.T) {
	build := diffKeySets()["highdup"]
	tab := New(len(build))
	sh := NewShared(len(build))
	pairs := make([]tuple.Tuple, 0, 4*len(build))
	// Warmup sizes chains and the pair buffer.
	tab.InsertBatch(build)
	sh.InsertBatch(build)
	pairs, _ = tab.ProbeBatch(build[:64], pairs[:0])
	allocs := testing.AllocsPerRun(20, func() {
		tab.Reset()
		tab.InsertBatch(build)
		pairs, _ = tab.ProbeBatch(build[:64], pairs[:0])
		sh.Reset()
		sh.InsertBatch(build)
		pairs, _ = sh.ProbeBatch(build[:64], pairs[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state build+probe allocates %.1f times per window, want 0", allocs)
	}
}

// TestProbePipelinedZeroAlloc pins the allocation contract of the
// prefetched probe across pipeline depths: the probe kernel stages bucket
// heads in a fixed scratch on the caller's stack, so no distance may
// allocate in steady state, whichever directory stage one walks.
func TestProbePipelinedZeroAlloc(t *testing.T) {
	build := diffKeySets()["highdup"]
	probes := diffKeySets()["skewed"]
	hashes := hashesOf(probes)
	for _, d := range []int32{1, 8, 16, prefBlockMax} {
		tab := New(len(build))
		tab.pref = d
		tab.InsertBatch(build)
		sh := NewShared(len(build))
		sh.pref = d
		sh.InsertBatch(build)
		pairs := make([]tuple.Tuple, 0, 4*len(build))
		pairs, _ = tab.ProbeBatch(probes, pairs[:0]) // size the pair buffer
		if allocs := testing.AllocsPerRun(10, func() {
			pairs, _ = tab.ProbeBatch(probes, pairs[:0])
			pairs, _ = tab.ProbeBatchHashed(probes, hashes, pairs[:0])
			pairs, _ = sh.ProbeBatch(probes, pairs[:0])
		}); allocs != 0 {
			t.Fatalf("distance %d: probe allocates %.1f per run, want 0", d, allocs)
		}
	}
}

// TestProbePrefetchDistanceDiff compares the prefetched build and probe
// against the scalar reference at every pipeline depth: identical (stored,
// probe) pairs in identical order, from Table and — after a single-writer
// build, which lays chains out exactly as Table's — from Shared. Distance
// is the one knob that must never change results.
func TestProbePrefetchDistanceDiff(t *testing.T) {
	sets := diffKeySets()
	for buildName, build := range sets {
		for probeName, probes := range sets {
			ref := New(len(build))
			for _, x := range build {
				ref.Insert(x)
			}
			want := scalarPairs(ref, probes)
			for _, d := range []int32{1, 2, 7, 16, 32, prefBlockMax} {
				name := fmt.Sprintf("%s->%s d=%d", buildName, probeName, d)
				tab := New(len(build))
				tab.pref = d
				tab.InsertBatch(build)
				got, _ := tab.ProbeBatch(probes, nil)
				equalPairs(t, name, got, want)
				sh := NewShared(len(build))
				sh.pref = d
				sh.InsertBatch(build)
				got, _ = sh.ProbeBatch(probes, nil)
				equalPairs(t, name+" shared", got, want)
			}
		}
	}
}

// TestBlockBoundaryLengths walks build and probe lengths across the block
// boundaries of the pipelined kernels — empty, one tuple, and one short
// of, exactly, and one past one and two full blocks — for each distance,
// with and without precomputed hashes. Keys repeat within and across
// blocks, so a block's inserts hit buckets staged earlier in the same
// block and chains spill mid-block.
func TestBlockBoundaryLengths(t *testing.T) {
	all := diffKeySets()["highdup"]
	for _, n := range []int{1, 2, 16, prefBlockMax} {
		lengths := []int{0, 1, n - 1, n, n + 1, 2*n - 1, 2*n + 1}
		for _, buildLen := range lengths {
			build := all[:buildLen]
			ref := New(buildLen)
			for _, x := range build {
				ref.Insert(x)
			}
			for _, probeLen := range lengths {
				probes := all[len(all)-probeLen:]
				want := scalarPairs(ref, probes)
				for _, hashed := range []bool{false, true} {
					name := fmt.Sprintf("d=%d build=%d probe=%d hashed=%v", n, buildLen, probeLen, hashed)
					tab := New(buildLen)
					tab.pref = int32(n)
					var got []tuple.Tuple
					var m int
					if hashed {
						tab.InsertBatchHashed(build, hashesOf(build))
						got, m = tab.ProbeBatchHashed(probes, hashesOf(probes), nil)
					} else {
						tab.InsertBatch(build)
						got, m = tab.ProbeBatch(probes, nil)
					}
					if tab.Size() != ref.Size() || tab.extra != ref.extra {
						t.Fatalf("%s: table holds %d tuples in %d overflow buckets, reference %d in %d",
							name, tab.Size(), tab.extra, ref.Size(), ref.extra)
					}
					if 2*m != len(got) {
						t.Fatalf("%s: match count %d does not cover %d pair tuples", name, m, len(got))
					}
					equalPairs(t, name, got, want)
				}
				sh := NewShared(buildLen)
				sh.pref = int32(n)
				sh.InsertBatch(build)
				got, _ := sh.ProbeBatch(probes, nil)
				equalPairs(t, fmt.Sprintf("d=%d build=%d probe=%d shared", n, buildLen, probeLen), got, want)
			}
		}
	}
}

// FuzzBatchDiff drives batch build+probe, on Table and on a
// single-writer Shared, against the scalar reference with arbitrary key
// bytes and an arbitrary prefetch distance, so the pipelined kernels are
// fuzzed at every depth (dRaw is clamped into [1, prefBlockMax]; 1
// selects the unpipelined walks).
func FuzzBatchDiff(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 2, 3, 4}, []byte{1, 2, 3, 4}, uint8(16))
	f.Add([]byte{}, []byte{9, 9, 9, 9}, uint8(1))
	f.Add([]byte{7, 0, 0, 0, 7, 0, 0, 0, 7, 0, 0, 0}, []byte{7, 0, 0, 0}, uint8(255))
	f.Fuzz(func(t *testing.T, rawBuild, rawProbe []byte, dRaw uint8) {
		decode := func(raw []byte) []tuple.Tuple {
			out := make([]tuple.Tuple, 0, len(raw)/4)
			for r := bytes.NewReader(raw); ; {
				var k int32
				if err := binary.Read(r, binary.LittleEndian, &k); err != nil {
					break
				}
				out = append(out, tuple.Tuple{Key: k, Payload: int32(len(out))})
			}
			return out
		}
		build, probes := decode(rawBuild), decode(rawProbe)
		ref := New(len(build))
		for _, x := range build {
			ref.Insert(x)
		}
		d := int32(clampPref(int(dRaw)))
		tab := New(len(build))
		tab.pref = d
		tab.InsertBatch(build)
		want := scalarPairs(ref, probes)
		got, n := tab.ProbeBatch(probes, nil)
		if n*2 != len(got) {
			t.Fatalf("match count %d does not cover %d pair tuples", n, len(got))
		}
		equalPairs(t, "table", got, want)
		sh := NewShared(len(build))
		sh.pref = d
		sh.InsertBatch(build)
		got, _ = sh.ProbeBatch(probes, nil)
		equalPairs(t, "shared", got, want)
	})
}

// BenchmarkKernelBuild contrasts the pre-kernel window build (fresh table
// per window, scalar Insert per tuple) with the kernel path (pooled table
// Reset, one InsertBatch). scripts/bench.sh compares them into
// BENCH_3.json.
func BenchmarkKernelBuild(b *testing.B) {
	tuples := benchTuples(100_000, 1000)
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(len(tuples)) * 16)
		for i := 0; i < b.N; i++ {
			tab := New(len(tuples))
			for _, x := range tuples {
				tab.Insert(x)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		tab := New(len(tuples))
		tab.InsertBatch(tuples) // warmup sizes the chains
		b.SetBytes(int64(len(tuples)) * 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tab.Reset()
			tab.InsertBatch(tuples)
		}
	})
}

// benchSink models the per-match work a real result sink does (count
// plus occasional latency sampling, as core.Sink.Match): a non-inlined
// method call, so neither variant gets its emission optimized away.
type benchSink struct {
	n   int64
	lat int64
}

//go:noinline
func (s *benchSink) match(r, p tuple.Tuple) {
	s.n++
	if s.n&1023 == 0 {
		s.lat += int64(r.TS - p.TS)
	}
}

// BenchmarkKernelProbe contrasts the pre-kernel probe loop (an emit
// closure constructed per probe, as NPJ/SHJ did) with ProbeBatch into a
// reused pair buffer, both feeding every match to the same sink.
func BenchmarkKernelProbe(b *testing.B) {
	tuples := benchTuples(100_000, 10_000)
	tab := New(len(tuples))
	tab.InsertBatch(tuples)
	probes := tuples[:10_000]
	// One bytes-processed definition for both rows: the probe stream plus
	// the pairs it emits (ProbeBytesProcessed), so their MB/s differ only
	// by time, never by accounting.
	_, matches := tab.ProbeBatch(probes, nil)
	bytesProcessed := ProbeBytesProcessed(len(probes), matches)
	var sink benchSink
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(bytesProcessed)
		for i := 0; i < b.N; i++ {
			for _, p := range probes {
				pv := p
				tab.Probe(p.Key, func(s tuple.Tuple) { sink.match(s, pv) })
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		pairs := make([]tuple.Tuple, 0, 4096)
		b.SetBytes(bytesProcessed)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(probes); lo += 1024 {
				hi := lo + 1024
				if hi > len(probes) {
					hi = len(probes)
				}
				pairs, _ = tab.ProbeBatch(probes[lo:hi], pairs[:0])
				for j := 0; j+1 < len(pairs); j += 2 {
					sink.match(pairs[j], pairs[j+1])
				}
			}
		}
	})
	_ = sink
}

// TestProbeBytesProcessedFormula pins the shared throughput accounting:
// bytes processed = (probes + 2*matches) * tuple.Bytes — the probing
// stream plus both tuples of every emitted (stored, probe) pair. Every
// probe benchmark's SetBytes must agree with it.
func TestProbeBytesProcessedFormula(t *testing.T) {
	for _, tc := range []struct {
		probes, matches int
		want            int64
	}{
		{0, 0, 0},
		{1, 0, 1 * tuple.Bytes},
		{10, 3, 16 * tuple.Bytes},
		{10_000, 99_949, (10_000 + 2*99_949) * tuple.Bytes},
	} {
		if got := ProbeBytesProcessed(tc.probes, tc.matches); got != tc.want {
			t.Errorf("ProbeBytesProcessed(%d, %d) = %d, want %d", tc.probes, tc.matches, got, tc.want)
		}
	}

	// The formula applied to a real probe equals the bytes that crossed
	// the kernel: the probe stream in, the pair buffer out.
	tuples := benchTuples(10_000, 1000)
	tab := New(len(tuples))
	tab.InsertBatch(tuples)
	probes := tuples[:1000]
	pairs, m := tab.ProbeBatch(probes, nil)
	if got, want := ProbeBytesProcessed(len(probes), m), int64(len(probes)+len(pairs))*tuple.Bytes; got != want {
		t.Errorf("bytes processed %d != probe stream plus emitted pairs %d", got, want)
	}
}
