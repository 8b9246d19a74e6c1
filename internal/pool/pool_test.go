package pool

import (
	"math/rand/v2"
	"testing"

	"repro/internal/hashtable"
	"repro/internal/metrics"
	"repro/internal/tuple"
)

func windowTuples(n, domain int, seed uint64) []tuple.Tuple {
	rng := rand.New(rand.NewPCG(seed, seed^5))
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{Key: int32(rng.IntN(domain)), Payload: int32(i)}
	}
	return out
}

// TestNilPoolFallsBack pins the nil-receiver contract every algorithm
// relies on: a nil *Pool hands out fresh, working state.
func TestNilPoolFallsBack(t *testing.T) {
	var p *Pool
	if tab := p.Table(100, 3); tab == nil || tab.DirBuckets() == 0 {
		t.Fatal("nil pool returned unusable Table")
	}
	if sh := p.Shared(100); sh == nil || sh.DirBuckets() == 0 {
		t.Fatal("nil pool returned unusable Shared")
	}
	if pr := p.Partitioner(); pr == nil {
		t.Fatal("nil pool returned nil Partitioner")
	}
	if buf := p.Tuples(10); cap(buf) < 10 || len(buf) != 0 {
		t.Fatal("nil pool returned unusable tuple buffer")
	}
	if buf := p.Hits(10); cap(buf) < 10 || len(buf) != 0 {
		t.Fatal("nil pool returned unusable hit buffer")
	}
	if buf := p.U32(10); cap(buf) < 10 || len(buf) != 0 {
		t.Fatal("nil pool returned unusable u32 buffer")
	}
	// Releases to a nil pool are no-ops, not panics.
	p.PutTable(p.Table(10, 0))
	p.PutShared(p.Shared(10))
	p.PutPartitioner(p.Partitioner())
	p.PutTuples(p.Tuples(4))
	p.PutHits(p.Hits(4))
	p.PutU32(p.U32(4))
}

// TestTableRoundTripSameClass checks a released table is reused for the
// next window of the same size class, and that a much larger request does
// not receive an undersized directory.
func TestTableRoundTripSameClass(t *testing.T) {
	p := New()
	t1 := p.Table(1000, 4)
	p.PutTable(t1)
	t2 := p.Table(1000, 4)
	if t1 != t2 {
		t.Fatal("same-class request did not reuse the released table")
	}
	p.PutTable(t2)
	big := p.Table(1_000_000, 0)
	if big == t2 {
		t.Fatal("a 1M-tuple request reused a 1k-tuple directory")
	}
	if big.DirBuckets() < 1_000_000/2 {
		t.Fatalf("big table directory has %d buckets", big.DirBuckets())
	}
}

// TestSharedRoundTrip does the same for the latched table.
func TestSharedRoundTrip(t *testing.T) {
	p := New()
	s1 := p.Shared(5000)
	s1.InsertBatch(windowTuples(100, 10, 1))
	p.PutShared(s1)
	s2 := p.Shared(5000)
	if s1 != s2 {
		t.Fatal("same-class request did not reuse the released Shared table")
	}
	if s2.Size() != 0 {
		t.Fatalf("reused Shared table still holds %d tuples", s2.Size())
	}
}

// TestPooledNPJWindowZeroAllocs drives the pooled NPJ kernel data path —
// acquire the shared table, batch-build, batch-probe into a pooled pair
// buffer, release — and proves the steady-state window allocates nothing.
// (A full core.Run carries goroutine/metrics scaffolding whose allocations
// are per-run, not per-tuple; the kernel path is what scales with data.
// See PERFORMANCE.md.)
func TestPooledNPJWindowZeroAllocs(t *testing.T) {
	p := New()
	build := windowTuples(4096, 64, 2)
	probes := windowTuples(1024, 64, 3)

	window := func() {
		tab := p.Shared(len(build))
		tab.InsertBatch(build)
		hits := p.Hits(256)
		for lo := 0; lo < len(probes); lo += 256 {
			hits = tab.ProbeRuns(probes[lo:lo+256], hits[:0])
		}
		p.PutHits(hits)
		p.PutShared(tab)
	}
	window() // first window sizes directory, store and hit buffer
	window() // second window settles freelist capacities and the arena
	if allocs := testing.AllocsPerRun(20, window); allocs != 0 {
		t.Fatalf("steady-state pooled NPJ window allocates %.1f times, want 0", allocs)
	}
}

// TestPooledSHJWindowZeroAllocs drives the pooled SHJ kernel data path:
// two per-worker tables, interleaved batch build and probe from both
// streams, all state released at window end.
func TestPooledSHJWindowZeroAllocs(t *testing.T) {
	p := New()
	rs := windowTuples(2048, 32, 4)
	ss := windowTuples(2048, 32, 5)
	const bsz = 64

	window := func() {
		rtab := p.Table(len(rs)+16, 0)
		stab := p.Table(len(ss)+16, 0)
		hits := p.Hits(bsz)
		for lo := 0; lo < len(rs); lo += bsz {
			rb, sb := rs[lo:lo+bsz], ss[lo:lo+bsz]
			rtab.InsertBatch(rb)
			hits = stab.ProbeRuns(rb, nil, hits[:0])
			stab.InsertBatch(sb)
			hits = rtab.ProbeRuns(sb, nil, hits[:0])
		}
		p.PutHits(hits)
		p.PutTable(rtab)
		p.PutTable(stab)
	}
	window()
	window()
	if allocs := testing.AllocsPerRun(20, window); allocs != 0 {
		t.Fatalf("steady-state pooled SHJ window allocates %.1f times, want 0", allocs)
	}
}

// TestPooledPRJWindowZeroAllocs covers the radix path: pooled partitioner,
// hash-once SWWCB partitioning, pooled per-partition tables built and
// probed through the *Hashed kernels.
func TestPooledPRJWindowZeroAllocs(t *testing.T) {
	p := New()
	rs := windowTuples(4096, 512, 6)
	ss := windowTuples(4096, 512, 7)
	const bits = 4

	window := func() {
		pr := p.Partitioner()
		ps := p.Partitioner()
		partsR, hashR := pr.PartitionHashed(rs, bits, nil, 0)
		partsS, hashS := ps.PartitionHashed(ss, bits, nil, 0)
		hits := p.Hits(len(ss))
		for pi := range partsR {
			if len(partsR[pi]) == 0 {
				continue
			}
			tab := p.Table(len(partsR[pi]), bits)
			tab.InsertBatchHashed(partsR[pi], hashR[pi])
			hits = tab.ProbeRuns(partsS[pi], hashS[pi], hits[:0])
			p.PutTable(tab)
		}
		p.PutHits(hits)
		p.PutPartitioner(pr)
		p.PutPartitioner(ps)
	}
	window()
	window()
	if allocs := testing.AllocsPerRun(20, window); allocs != 0 {
		t.Fatalf("steady-state pooled PRJ window allocates %.1f times, want 0", allocs)
	}
}

// TestPoolCorrectnessUnderReuse cross-checks that pooling never changes
// results: many windows over one pool must match a fresh no-pool join.
func TestPoolCorrectnessUnderReuse(t *testing.T) {
	p := New()
	for w := 0; w < 6; w++ {
		build := windowTuples(512+w*100, 16+w, uint64(10+w))
		probes := windowTuples(300, 16+w, uint64(20+w))

		fresh := (*Pool)(nil).Table(len(build), 0)
		fresh.InsertBatch(build)
		_, want := fresh.ProbeBatch(probes, nil)

		tab := p.Table(len(build), 0)
		pairs := p.Tuples(16)
		pairs, got := tab.ProbeBatch(probes, pairs[:0])
		if got != 0 {
			t.Fatalf("window %d: pooled table not empty before build", w)
		}
		tab.InsertBatch(build)
		pairs, got = tab.ProbeBatch(probes, pairs[:0])
		if got != want {
			t.Fatalf("window %d: pooled join found %d matches, fresh found %d", w, got, want)
		}
		p.PutTuples(pairs)
		p.PutTable(tab)
	}
}

// TestBufferSizeClasses pins the freelist discipline of Tuples and U32: a
// small request must not walk off with a large buffer while one of its own
// class is free, so an interleaved small/large get–put sequence — a batch
// buffer and a run buffer, in either release order — allocates nothing
// after its first cycle.
func TestBufferSizeClasses(t *testing.T) {
	const small, large = 64, 1 << 16
	p := New()
	cycle := func() {
		run := p.Tuples(large)
		batch := p.Tuples(small)
		scratch := p.U32(large)
		idx := p.U32(small)
		if cap(run) < large || cap(batch) < small || cap(scratch) < large || cap(idx) < small {
			t.Fatalf("undersized buffers: %d %d %d %d", cap(run), cap(batch), cap(scratch), cap(idx))
		}
		if cap(batch) >= large || cap(idx) >= large {
			t.Fatalf("a %d-element request took a %d-element buffer", small, large)
		}
		// Release large-last, so a LIFO first-fit list would hand the run
		// buffer to the next small request.
		p.PutTuples(batch)
		p.PutTuples(run)
		p.PutU32(idx)
		p.PutU32(scratch)
		// And the other interleaving: small taken while large is out.
		batch = p.Tuples(small)
		run = p.Tuples(large)
		p.PutTuples(run)
		p.PutTuples(batch)
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("interleaved small/large cycle allocates %.1f times after the first, want 0", allocs)
	}
	st := p.Stats()
	if st.Misses[metrics.PoolTuples] != 2 || st.Misses[metrics.PoolU32] != 2 {
		t.Fatalf("want exactly the first cycle's four misses, got tuples=%d u32=%d",
			st.Misses[metrics.PoolTuples], st.Misses[metrics.PoolU32])
	}
}

// TestDuplicateKeysRetainNoMatchBuffer: what a dupe-100 NPJ window leaves
// in the pool besides its table is the workers' hit buffers — one hit per
// probe of a batch, whatever the duplication — where a (stored, probe) pair
// per match kept a buffer of a batch's matches, 3.2 MB a worker at this
// shape, alive between windows.
func TestDuplicateKeysRetainNoMatchBuffer(t *testing.T) {
	const workers, batch, dupe = 2, 1024, 100
	p := New()
	build := windowTuples(200_000/10, 200_000/10/dupe, 8)
	probes := windowTuples(2*batch, 200_000/10/dupe, 9)
	window := func() {
		tab := p.Shared(len(build))
		tab.InsertBatch(build)
		var held [workers][]hashtable.Hit
		matches := 0
		for w := range held {
			held[w] = tab.ProbeRuns(probes[w*batch:(w+1)*batch], p.Hits(batch))
			for _, h := range held[w] {
				matches += len(h.Stored)
			}
		}
		if matches < workers*batch*dupe*9/10 {
			t.Fatalf("set-up: %d matches from %d probes, want about %d each", matches, workers*batch, dupe)
		}
		for _, hits := range held {
			p.PutHits(hits)
		}
		p.PutShared(tab)
	}
	window()
	window()
	tab := p.Shared(len(build))
	beside := p.Stats().RetainedBytes
	p.PutShared(tab)
	if limit := int64(workers * batch * hitBytes); beside > limit {
		t.Fatalf("pool retains %d bytes beside the table after a dupe-%d window, want at most the %d of %d hit buffers", beside, dupe, limit, workers)
	}
}

// TestStatsCountAndRetain checks the observability counters: hits and
// misses per kind, retained bytes rising on release and falling on reuse,
// a nil pool reading zero, and Stats itself allocating nothing.
func TestStatsCountAndRetain(t *testing.T) {
	if (*Pool)(nil).Stats() != (metrics.PoolStats{}) {
		t.Fatal("nil pool must read zero stats")
	}
	p := New()
	tab := p.Table(1000, 0)
	buf := p.Tuples(100)
	if st := p.Stats(); st.Misses[metrics.PoolTable] != 1 || st.Misses[metrics.PoolTuples] != 1 || st.RetainedBytes != 0 {
		t.Fatalf("after two cold acquires: %+v", st)
	}
	p.PutTable(tab)
	p.PutTuples(buf)
	held := p.Stats().RetainedBytes
	if want := tab.MemBytes() + int64(cap(buf))*tuple.Bytes; held != want {
		t.Fatalf("retained %d bytes, want %d", held, want)
	}
	p.Tuples(100)
	st := p.Stats()
	if st.Hits[metrics.PoolTuples] != 1 || st.RetainedBytes != tab.MemBytes() {
		t.Fatalf("after one warm acquire: %+v", st)
	}
	if d := st.Since(metrics.PoolStats{Misses: st.Misses}); d.Misses != ([metrics.NumPoolKinds]int64{}) || d.Hits != st.Hits {
		t.Fatalf("Since: %+v", d)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = p.Stats() }); allocs != 0 {
		t.Fatalf("Stats allocates %.1f times", allocs)
	}
}
