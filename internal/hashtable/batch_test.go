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

// diffKeys builds the key regimes the paper studies — uniform, unique,
// skewed (hot keys), Zipf, high duplication (runs that grow once or twice)
// and dupe 100 (runs that grow five times) — plus empty and a single tuple.
func diffKeySets() map[string][]tuple.Tuple {
	rng := rand.New(rand.NewPCG(13, 17))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<16)
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
		"unique":  mk(3000, func(i int) int32 { return int32(i*7919 + 3) }),
		"zipf":    mk(3000, func(i int) int32 { return int32(zipf.Uint64()) }),
		"highdup": mk(3000, func(i int) int32 { return rng.Int32N(8) }),
		"dupe100": mk(3000, func(i int) int32 { return rng.Int32N(30) }),
		"empty":   nil,
		"single":  {tuple.Tuple{Key: 42, Payload: 7}},
	}
}

// scalarHits is the scalar reference's answer to probes in the kernels'
// form: per probe that finds its key, what the closure API emits for it,
// in its order — the reference the batch kernel must reproduce exactly.
func scalarHits(probe func(int32, func(tuple.Tuple)) int, probes []tuple.Tuple) []Hit {
	var out []Hit
	byKey := map[int32][]tuple.Tuple{} // the walk is per key; no need to repeat it per probe
	for _, p := range probes {
		stored, seen := byKey[p.Key]
		if !seen {
			probe(p.Key, func(s tuple.Tuple) { stored = append(stored, s) })
			byKey[p.Key] = stored
		}
		if len(stored) > 0 {
			out = append(out, Hit{Probe: p, Stored: stored})
		}
	}
	return out
}

func equalHits(t *testing.T, name string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].Probe != want[i].Probe {
			t.Fatalf("%s: hit %d is probe %+v, want %+v", name, i, got[i].Probe, want[i].Probe)
		}
		if !slices.Equal(got[i].Stored, want[i].Stored) {
			t.Fatalf("%s: probe %+v found %d stored tuples, want %d (or their order differs)", name, want[i].Probe, len(got[i].Stored), len(want[i].Stored))
		}
	}
}

// pairsOf writes hits out as (stored, probe) pairs.
func pairsOf(hits []Hit) []tuple.Tuple {
	var out []tuple.Tuple
	for _, h := range hits {
		for _, s := range h.Stored {
			out = append(out, s, h.Probe)
		}
	}
	return out
}

// carved is how far a slab has been carved this epoch: in its array, in
// its current spill array, and the size of all spill arrays. Two slabs that
// served the same takes in the same order agree on all three; the first
// two add up to the elements taken while at most one spill array exists.
func carved[T any](s *slab[T]) [3]int { return [3]int{s.used, s.spillUsed, s.spilled} }

func hashesOf(xs []tuple.Tuple) []uint32 {
	hs := make([]uint32, len(xs))
	for i := range xs {
		hs[i] = Hash(xs[i].Key)
	}
	return hs
}

// TestBatchMatchesScalar is the build+probe differential: a batch-built
// table must answer every probe with the same stored tuples, in the same
// order, as a scalar-built table probed through the closure API.
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

			want := scalarHits(scalarTab.Probe, probes)
			equalHits(t, name, batchTab.ProbeRuns(probes, nil, nil), want)
			// The pair form is the same hits, written out.
			probes = probes[:min(len(probes), 200)]
			got, n := batchTab.ProbeBatch(probes, nil)
			if n*2 != len(got) {
				t.Fatalf("%s: match count %d does not cover %d pair tuples", name, n, len(got))
			}
			if !slices.Equal(got, pairsOf(scalarHits(scalarTab.Probe, probes))) {
				t.Fatalf("%s: ProbeBatch's %d pairs are not the scalar walk's matches in its order", name, n)
			}
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
		equalHits(t, "hashed", tab.ProbeRuns(probes, hashesOf(probes), nil), scalarHits(ref.Probe, probes))
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
// two-writer build a run's order is the interleaving's, so every probe
// must find the same stored tuples as a multiset (single-writer builds are
// compared in exact order by TestProbePrefetchDistanceDiff) — still one
// hit per probe, in probe order. Run it under -race: the writers meet in
// the latches and in the store. The name predates the removal of the
// lock-free table.
func TestSharedAndLockFreeBatchCounts(t *testing.T) {
	sets := diffKeySets()
	for _, buildName := range []string{"skewed", "dupe100", "zipf"} {
		build, probes := sets[buildName], sets["highdup"]
		ref := New(len(build))
		ref.InsertBatch(build)
		want := ref.ProbeRuns(probes, nil, nil)

		sh := NewShared(len(build))
		var wg sync.WaitGroup
		for _, part := range [][]tuple.Tuple{build[:len(build)/3], build[len(build)/3 : 2*len(build)/3], build[2*len(build)/3:]} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sh.InsertBatch(part)
			}()
		}
		wg.Wait()
		if sh.Size() != int64(len(build)) {
			t.Fatalf("%s: Shared holds %d tuples after a three-writer build, want %d", buildName, sh.Size(), len(build))
		}
		got := sh.ProbeRuns(probes, nil)
		if len(got) != len(want) {
			t.Fatalf("%s: Shared batch made %d hits, want %d", buildName, len(got), len(want))
		}
		for i := range want {
			if got[i].Probe != want[i].Probe {
				t.Fatalf("%s: hit %d is probe %+v, want %+v", buildName, i, got[i].Probe, want[i].Probe)
			}
			if !slices.Equal(sortedPairs(pairsOf(got[i:i+1])), sortedPairs(pairsOf(want[i:i+1]))) {
				t.Fatalf("%s: probe %+v: stored multiset differs from the single-writer Table's", buildName, want[i].Probe)
			}
		}
	}
}

// TestResetReuse proves the Reset protocol: a reused table must behave
// exactly like a fresh one — whatever runs the earlier windows grew — and
// steady-state reuse must not grow memory.
func TestResetReuse(t *testing.T) {
	sets := diffKeySets()
	tab := New(3000)
	for _, name := range []string{"dupe100", "uniform", "highdup", "dupe100", "skewed"} {
		build := sets[name]
		tab.Reset()
		tab.InsertBatch(build)
		fresh := New(3000)
		for _, x := range build {
			fresh.Insert(x)
		}
		equalHits(t, "reset/"+name, tab.ProbeRuns(build, nil, nil), scalarHits(fresh.Probe, build))
	}
	var mem [2]int64
	for i := range mem {
		tab.Reset()
		tab.InsertBatch(sets["dupe100"])
		mem[i] = tab.MemBytes()
	}
	if mem[1] != mem[0] {
		t.Fatalf("reused table went from %d to %d bytes on identical input", mem[0], mem[1])
	}
}

// TestGrowKeepsFreeList checks Grow preserves the store — recycled
// overflow buckets and the arena of grown runs — while resizing the
// directory, whether or not the table was Reset first.
func TestGrowKeepsFreeList(t *testing.T) {
	tab := New(8)
	for i := 0; i < 256; i++ {
		tab.Insert(tuple.Tuple{Key: 5, Payload: int32(i)})        // one long run
		tab.Insert(tuple.Tuple{Key: int32(1000 + i), Payload: 0}) // and long chains of distinct keys
	}
	before := tab.MemBytes()
	storeBefore := tab.store.bytes()
	if tab.over.size() == 0 || tab.arena.size() < 256 {
		t.Fatalf("set-up: %d overflow buckets, %d arena tuples", tab.over.size(), tab.arena.size())
	}
	tab.Grow(1024)
	if tab.DirBuckets() < 512 {
		t.Fatalf("Grow(1024) left directory at %d buckets", tab.DirBuckets())
	}
	if tab.MemBytes() <= before || tab.store.bytes() < storeBefore {
		t.Fatal("Grow must keep the overflow free list and the arena while growing the directory")
	}
	if tab.Size() != 0 {
		t.Fatalf("grown table reports %d stored tuples", tab.Size())
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
// a pooled table has sized its store — chains, runs blocks and arena; the
// second Reset is the one that folds the first window's spill arrays into
// the arena — a window's build+probe cycle allocates nothing, on Table and
// on Shared, over grown runs as over unique keys.
func TestZeroAllocSteadyState(t *testing.T) {
	for _, name := range []string{"highdup", "dupe100", "zipf", "unique"} {
		build := diffKeySets()[name]
		tab := New(len(build))
		sh := NewShared(len(build))
		hits := make([]Hit, 0, 64)
		for warm := 0; warm < 2; warm++ {
			tab.Reset()
			tab.InsertBatch(build)
			sh.Reset()
			sh.InsertBatch(build)
		}
		allocs := testing.AllocsPerRun(20, func() {
			tab.Reset()
			tab.InsertBatch(build)
			hits = tab.ProbeRuns(build[:64], nil, hits[:0])
			sh.Reset()
			sh.InsertBatch(build)
			hits = sh.ProbeRuns(build[:64], hits[:0])
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state build+probe allocates %.1f times per window, want 0", name, allocs)
		}
	}
}

// TestProbePipelinedZeroAlloc pins the allocation contract of the
// prefetched probe across pipeline depths: the probe kernel stages bucket
// heads in a fixed scratch on the caller's stack and makes at most one hit
// per probe, so no distance may allocate given a buffer of the probes'
// length, whichever directory stage one walks.
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
		hits := make([]Hit, 0, len(probes))
		pairs, _ := tab.ProbeBatch(probes, nil) // size the pair buffer
		if allocs := testing.AllocsPerRun(10, func() {
			hits = tab.ProbeRuns(probes, nil, hits[:0])
			hits = tab.ProbeRuns(probes, hashes, hits[:0])
			hits = sh.ProbeRuns(probes, hits[:0])
			pairs, _ = tab.ProbeBatch(probes, pairs[:0])
		}); allocs != 0 {
			t.Fatalf("distance %d: probe allocates %.1f per run, want 0", d, allocs)
		}
	}
}

// TestProbePrefetchDistanceDiff compares the prefetched build and probe
// against the scalar reference at every pipeline depth: per probe the
// identical stored tuples in identical order, from Table and — after a
// single-writer build, which lays chains out exactly as Table's — from
// Shared. Distance
// is the one knob that must never change results.
func TestProbePrefetchDistanceDiff(t *testing.T) {
	sets := diffKeySets()
	for buildName, build := range sets {
		for probeName, probes := range sets {
			ref := New(len(build))
			for _, x := range build {
				ref.Insert(x)
			}
			want := scalarHits(ref.Probe, probes)
			for _, d := range []int32{1, 2, 7, 16, 32, prefBlockMax} {
				name := fmt.Sprintf("%s->%s d=%d", buildName, probeName, d)
				tab := New(len(build))
				tab.pref = d
				tab.InsertBatch(build)
				equalHits(t, name, tab.ProbeRuns(probes, nil, nil), want)
				sh := NewShared(len(build))
				sh.pref = d
				sh.InsertBatch(build)
				equalHits(t, name+" shared", sh.ProbeRuns(probes, nil), want)
			}
		}
	}
}

// TestBlockBoundaryLengths walks build and probe lengths across the block
// boundaries of the pipelined kernels — empty, one tuple, and one short
// of, exactly, and one past one and two full blocks — for each distance,
// with and without precomputed hashes. Keys repeat within and across
// blocks, so a block's inserts hit buckets staged earlier in the same
// block and runs open and grow mid-block.
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
				want := scalarHits(ref.Probe, probes)
				for _, hashed := range []bool{false, true} {
					name := fmt.Sprintf("d=%d build=%d probe=%d hashed=%v", n, buildLen, probeLen, hashed)
					tab := New(buildLen)
					tab.pref = int32(n)
					var hits []Hit
					if hashed {
						tab.InsertBatchHashed(build, hashesOf(build))
						hits = tab.ProbeRuns(probes, hashesOf(probes), nil)
					} else {
						tab.InsertBatch(build)
						hits = tab.ProbeRuns(probes, nil, nil)
					}
					// The same takes in the same order leave the same slabs.
					if tab.Size() != ref.Size() || carved(&tab.over) != carved(&ref.over) || carved(&tab.arena) != carved(&ref.arena) {
						t.Fatalf("%s: table holds %d tuples, overflow slab %v, arena slab %v; reference %d, %v, %v",
							name, tab.Size(), carved(&tab.over), carved(&tab.arena), ref.Size(), carved(&ref.over), carved(&ref.arena))
					}
					equalHits(t, name, hits, want)
				}
				sh := NewShared(buildLen)
				sh.pref = int32(n)
				sh.InsertBatch(build)
				equalHits(t, fmt.Sprintf("d=%d build=%d probe=%d shared", n, buildLen, probeLen), sh.ProbeRuns(probes, nil), want)
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
		want := scalarHits(ref.Probe, probes)
		equalHits(t, "table", tab.ProbeRuns(probes, nil, nil), want)
		sh := NewShared(len(build))
		sh.pref = d
		sh.InsertBatch(build)
		equalHits(t, "shared", sh.ProbeRuns(probes, nil), want)
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

// probeBytesProcessed is the bytes-processed definition shared by every
// probe benchmark: the probing tuple stream plus both tuples of every
// match, 16 bytes per tuple, so the MB/s figures of two probe variants
// over the same streams differ only by time — not by accounting
// (PERFORMANCE.md §7) — and stay comparable with the rows recorded when a
// probe wrote a (stored, probe) pair per match.
func probeBytesProcessed(probes, matches int) int64 {
	return int64(probes+2*matches) * tuple.Bytes
}

// benchProbe contrasts the scalar reference walk (an emit closure
// constructed per probe, as NPJ/SHJ once did) with ProbeRuns into a reused
// hit buffer, both feeding every match to the same sink, over tuples keys
// drawn from domain.
func benchProbe(b *testing.B, domain int) {
	tuples := benchTuples(100_000, domain)
	tab := New(len(tuples))
	tab.InsertBatch(tuples)
	probes := tuples[:10_000]
	// One bytes-processed definition for both rows, so their MB/s differ
	// only by time, never by accounting.
	_, matches := tab.ProbeBatch(probes, nil)
	bytesProcessed := probeBytesProcessed(len(probes), matches)
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
		hits := make([]Hit, 0, 1024)
		b.SetBytes(bytesProcessed)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(probes); lo += 1024 {
				hits = tab.ProbeRuns(probes[lo:min(lo+1024, len(probes))], nil, hits[:0])
				for _, h := range hits {
					for _, s := range h.Stored {
						sink.match(s, h.Probe)
					}
				}
			}
		}
	})
	_ = sink
}

// BenchmarkKernelProbe is the probe kernel at dupe 10.
func BenchmarkKernelProbe(b *testing.B) { benchProbe(b, 10_000) }

// BenchmarkKernelProbeDup is the probe kernel at dupe 100, rest_dup's
// duplication: runs long enough that the walk to them is the small part.
func BenchmarkKernelProbeDup(b *testing.B) { benchProbe(b, 1_000) }

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
		if got := probeBytesProcessed(tc.probes, tc.matches); got != tc.want {
			t.Errorf("probeBytesProcessed(%d, %d) = %d, want %d", tc.probes, tc.matches, got, tc.want)
		}
	}

	// The formula applied to a real probe equals the bytes that crossed
	// the kernel: the probe stream in, the pair buffer out.
	tuples := benchTuples(10_000, 1000)
	tab := New(len(tuples))
	tab.InsertBatch(tuples)
	probes := tuples[:1000]
	pairs, m := tab.ProbeBatch(probes, nil)
	if got, want := probeBytesProcessed(len(probes), m), int64(len(probes)+len(pairs))*tuple.Bytes; got != want {
		t.Errorf("bytes processed %d != probe stream plus emitted pairs %d", got, want)
	}
}
