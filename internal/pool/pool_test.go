package pool

import (
	"math/rand/v2"
	"testing"
	"unsafe"

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

// TestTableRoundTripSameClass checks a released table is reused for the
// next window of the same size class, and that a much larger request does
// not receive an undersized directory.
func TestTableRoundTripSameClass(t *testing.T) {
	p := New()
	t1 := p.Table(1000)
	p.PutTable(t1)
	t2 := p.Table(1000)
	if t1 != t2 {
		t.Fatal("same-class request did not reuse the released table")
	}
	p.PutTable(t2)
	big := p.Table(1_000_000)
	if big == t2 {
		t.Fatal("a 1M-tuple request reused a 1k-tuple directory")
	}
	if big.DirBuckets() < 1_000_000/2 {
		t.Fatalf("big table directory has %d buckets", big.DirBuckets())
	}
}

// TestDirectoryIsOneBucketPerTuplePair: a capacity hint of n tuples gets
// the least power of two of buckets that holds its n/2 pairs — 2^(k-1) at
// n = 2^k, not twice that — from hashtable.New, NewShared and both Grows
// alike: the one rule, hashtable.DirBits, which the pool keys its table
// freelists by.
func TestDirectoryIsOneBucketPerTuplePair(t *testing.T) {
	for k := 1; k <= 16; k++ {
		for _, n := range []int{1<<k - 1, 1 << k, 1<<k + 1} {
			want := 1 << (k - 1)
			if n > 1<<k {
				want <<= 1
			}
			grown, grownShared := hashtable.New(0), hashtable.NewShared(0)
			grown.Grow(n)
			grownShared.Grow(n)
			got := [...]int{1 << hashtable.DirBits(n), hashtable.New(n).DirBuckets(), hashtable.NewShared(n).DirBuckets(), grown.DirBuckets(), grownShared.DirBuckets()}
			if got != [...]int{want, want, want, want, want} {
				t.Fatalf("n = %d: DirBits, New, NewShared, Table.Grow, Shared.Grow give %v buckets, want %d", n, got, want)
			}
		}
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
		rtab := p.Table(len(rs) + 16)
		stab := p.Table(len(ss) + 16)
		hits := p.Hits(bsz)
		for lo := 0; lo < len(rs); lo += bsz {
			rb, sb := rs[lo:lo+bsz], ss[lo:lo+bsz]
			rtab.InsertBatch(rb)
			hits = stab.ProbeRuns(rb, hits[:0])
			stab.InsertBatch(sb)
			hits = rtab.ProbeRuns(sb, hits[:0])
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
// radix partitioning, pooled per-partition tables shifted past the radix,
// built and probed.
func TestPooledPRJWindowZeroAllocs(t *testing.T) {
	p := New()
	rs := windowTuples(4096, 512, 6)
	ss := windowTuples(4096, 512, 7)
	const bits = 4

	window := func() {
		pr := p.Partitioner()
		ps := p.Partitioner()
		partsR := pr.Partition(rs, bits, nil, 0)
		partsS := ps.Partition(ss, bits, nil, 0)
		hits := p.Hits(len(ss))
		for pi := range partsR {
			if len(partsR[pi]) == 0 {
				continue
			}
			tab := p.Table(len(partsR[pi]))
			tab.SetShift(bits)
			tab.InsertBatch(partsR[pi])
			hits = tab.ProbeRuns(partsS[pi], hits[:0])
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
// results: many windows over one pool must match a freshly built table.
func TestPoolCorrectnessUnderReuse(t *testing.T) {
	p := New()
	for w := 0; w < 6; w++ {
		build := windowTuples(512+w*100, 16+w, uint64(10+w))
		probes := windowTuples(300, 16+w, uint64(20+w))

		fresh := hashtable.New(len(build))
		fresh.InsertBatch(build)
		_, want := fresh.ProbeBatch(probes, nil)

		tab := p.Table(len(build))
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
// after its first cycle. A request that is no power of two misses with
// exactly its size, and that buffer serves it once put back.
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

	// A request between two classes misses with exactly what it asked for,
	// and once put back serves the same request again.
	const odd = 40_000
	p = New()
	if buf := p.Tuples(odd); cap(buf) != odd {
		t.Fatalf("a missed %d-tuple request allocated capacity %d", odd, cap(buf))
	} else {
		p.PutTuples(buf)
	}
	again := func() { p.PutTuples(p.Tuples(odd)) }
	if allocs := testing.AllocsPerRun(20, again); allocs != 0 {
		t.Fatalf("the same %d-tuple request after its put allocates %.1f times, want 0", odd, allocs)
	}
}

// TestReleaseAllocatesNothing: putting back a Table and a Shared whose
// stores spilled past their arrays allocates nothing; the fold into one
// array waits for the table's next take, and the retained bytes already
// count it. The allocations are counted, not the process's bytes, over
// many puts, so an allocation elsewhere in the process is divided away
// while a release that allocates reads at least one per run.
func TestReleaseAllocatesNothing(t *testing.T) {
	const runs = 10
	p := New()
	build := windowTuples(4096, 8, 11) // 512 duplicates a key: the arena spills
	// AllocsPerRun calls its function once more than runs. A first round
	// trip of every table gives each freelist its slots.
	tabs, shs := make([]*hashtable.Table, runs+1), make([]*hashtable.Shared, runs+1)
	for i := range tabs {
		tabs[i], shs[i] = p.Table(len(build)), p.Shared(len(build))
	}
	for i := range tabs {
		p.PutTable(tabs[i])
		p.PutShared(shs[i])
	}
	for i := range tabs {
		tabs[i], shs[i] = p.Table(len(build)), p.Shared(len(build))
		tabs[i].InsertBatch(build)
		shs[i].InsertBatch(build)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		p.PutTable(tabs[next])
		p.PutShared(shs[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("releasing a spilled Table and Shared allocates %.1f times, want 0", allocs)
	}
	var want int64
	for i := range tabs {
		want += tabs[i].MemBytes() + shs[i].MemBytes()
	}
	if held := p.Stats().RetainedBytes; held != want {
		t.Fatalf("pool retains %d B, want the tables' %d", held, want)
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
	if limit := int64(workers*batch) * int64(unsafe.Sizeof(hashtable.Hit{})); beside > limit {
		t.Fatalf("pool retains %d bytes beside the table after a dupe-%d window, want at most the %d of %d hit buffers", beside, dupe, limit, workers)
	}
}

// TestStatsCountAndRetain checks the observability counters: hits and
// misses per kind, retained bytes rising on release and falling on reuse,
// and Stats itself allocating nothing.
func TestStatsCountAndRetain(t *testing.T) {
	p := New()
	tab := p.Table(1000)
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
