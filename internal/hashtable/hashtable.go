// Package hashtable implements the bucket-chain hash tables used by the
// hash-based join algorithms.
//
// The layout follows the bucket-chain design of the Balkesen et al.
// benchmark that the paper builds on: fixed-capacity buckets of tuples
// with overflow chaining. Two tables cover the studied algorithms:
//
//   - Table: single-writer table (per-thread SHJ state, per-partition PRJ
//     joins).
//   - Shared: one table concurrently populated by all threads with
//     per-bucket latches (NPJ's build phase), exhibiting exactly the access
//     conflicts the paper attributes to NPJ under high key duplication.
//
// Both are driven a batch at a time (batch.go): one pipelined build kernel
// and one pipelined probe kernel serve Table, and Shared's probe runs the
// same kernel over its latched directory. Both accept an optional
// cachesim.Tracer so profile runs can feed the simulated cache hierarchy
// with the table's logical addresses.
package hashtable

import (
	"sync"
	"sync/atomic"

	"repro/internal/cachesim"
	"repro/internal/tuple"
)

// bucketCap tuples per bucket: 4 entries * 16 bytes + header fits the
// cache-line-conscious layout of the original benchmark.
const bucketCap = 4

// bucketBytes is the logical footprint of one bucket, used to synthesize
// addresses for the cache simulator and for memory accounting.
const bucketBytes = 80

type bucket struct {
	n      int32
	tuples [bucketCap]tuple.Tuple
	next   *bucket
}

// Hash is the multiplicative hash shared by all hash-based algorithms so
// partitioning and table placement agree. It runs once (or more) per tuple
// in every hash kernel; a call that stopped inlining would put a function
// call in each of them, so the contract is checked (LINTING.md §inlinegate).
//
//iawj:inline
func Hash(key int32) uint32 {
	x := uint32(key)
	x ^= x >> 16
	x *= 0x45d9f3b
	x ^= x >> 16
	return x
}

// Table is a single-writer bucket-chain hash table.
type Table struct {
	buckets []bucket
	mask    uint32
	shift   uint32 // hash bits consumed upstream (radix partitioning)
	pref    int32  // probe prefetch distance (see prefetch.go)
	tick    int32  // keeps pipelined stage-one loads observable (batch.go)
	size    int64  // tuples stored
	extra   int64  // overflow buckets owned (chained or free-listed)
	free    *bucket

	// dirty lists the head buckets this build epoch touched, appended on
	// first touch by every insert path. Reset visits only these instead of
	// sweeping the whole directory: a windowed build typically dirties a
	// small fraction of a pooled directory, and the sweep was the cost
	// that made the pooled build lose to a freshly allocated table.
	dirty []*bucket

	tracer cachesim.Tracer
	base   uint64 // logical base address for tracing
}

// New creates a table with capacity hint n tuples. The bucket directory is
// sized to roughly one bucket per expected tuple pair, rounded to a power
// of two, as in the original benchmark.
func New(n int) *Table {
	nb := nextPow2(n/2 + 1)
	return &Table{buckets: make([]bucket, nb), mask: uint32(nb - 1), pref: probePrefetch.Load()}
}

// SetShift discards the low shift bits of the hash for bucket placement.
// A per-partition table of a radix join must set shift to the radix bit
// count: every key in partition p shares the low #r hash bits, so indexing
// on them would collapse the whole partition into a handful of chains.
func (t *Table) SetShift(shift int) {
	t.shift = uint32(min(max(shift, 0), maxShift))
}

// Grow ensures the bucket directory is sized for a capacity hint of n
// tuples, reallocating it (and discarding stored tuples) when too small.
// The overflow free list survives, so a pooled table keeps its recycled
// buckets across windows of growing size.
func (t *Table) Grow(n int) {
	nb := nextPow2(n/2 + 1)
	if nb <= len(t.buckets) {
		return
	}
	t.buckets = make([]bucket, nb)
	t.mask = uint32(nb - 1)
	t.size = 0
	t.dirty = t.dirty[:0] // old pointers target the discarded directory
}

// Reset clears the table for reuse: every overflow bucket moves to the
// free list, the directory restarts empty, and the directory allocation is
// kept. A steady-state window over a pooled table therefore inserts with
// zero allocations once the first window has sized the chains.
//
// Reset visits only the dirty list — the head buckets this build epoch
// actually touched — not the directory. The pool hands out the next size
// class up, so a windowed build typically dirties a small fraction of the
// buckets, and even a read-only full sweep (let alone the original
// read-modify-write of every header) costs more than the build it enables:
// the sweep is what made the pooled build lose to a freshly allocated
// table before dirty tracking.
func (t *Table) Reset() {
	for _, b := range t.dirty {
		for ov := b.next; ov != nil; {
			nxt := ov.next
			ov.next = t.free
			t.free = ov
			ov = nxt
		}
		b.n = 0
		b.next = nil
	}
	t.dirty = t.dirty[:0]
	t.size = 0
	t.tracer = nil
	t.base = 0
}

// newBucket pops a recycled overflow bucket or allocates a fresh one.
func (t *Table) newBucket() *bucket {
	if nb := t.free; nb != nil {
		t.free = nb.next
		return nb
	}
	t.extra++
	return &bucket{}
}

// DirBuckets reports the directory size, the pool's size-class key.
func (t *Table) DirBuckets() int { return len(t.buckets) }

// SetTracer attaches a cache-simulation tracer; base distinguishes this
// table's address space from other structures in the same profile run.
func (t *Table) SetTracer(tr cachesim.Tracer, base uint64) {
	t.tracer = tr
	t.base = base
}

// Size returns the number of stored tuples.
func (t *Table) Size() int64 { return t.size }

// MemBytes reports the logical memory footprint of the table, used for the
// Figure 19b memory-consumption timeline.
func (t *Table) MemBytes() int64 {
	return int64(len(t.buckets))*bucketBytes + t.extra*bucketBytes
}

// Shared is a bucket-chain table concurrently populated by many threads.
// Per-bucket latches serialize inserts to the same chain, reproducing
// NPJ's access-conflict behaviour on skewed or high-duplication keys.
type Shared struct {
	buckets []sharedBucket
	mask    uint32
	pref    int32
	size    atomic.Int64
	extra   atomic.Int64

	// freeMu guards the overflow free list: overflow events under
	// different bucket latches may race on it. Overflows are rare (once
	// per bucketCap inserts per chain), so the extra lock is off the
	// common path. The pad keeps it off the cache line of the size/extra
	// counters, which every batch and every overflow bumps.
	_      [16]byte
	freeMu sync.Mutex
	free   *bucket

	// tracer feeds profile runs; those run single-threaded, so the
	// tracer itself needs no synchronization.
	tracer cachesim.Tracer
	base   uint64
}

// Grow ensures the directory is sized for n tuples, reallocating (and
// discarding contents) when too small. Not safe for concurrent use; call
// between windows.
func (t *Shared) Grow(n int) {
	nb := nextPow2(n/2 + 1)
	if nb <= len(t.buckets) {
		return
	}
	t.buckets = make([]sharedBucket, nb)
	t.mask = uint32(nb - 1)
	t.size.Store(0)
}

// Reset clears the table for reuse, recycling overflow buckets onto the
// free list. Not safe for concurrent use; call between windows once all
// workers have quiesced. Clean buckets are skipped without writing, as in
// Table.Reset.
func (t *Shared) Reset() {
	for i := range t.buckets {
		b := &t.buckets[i].bucket
		if b.n == 0 && b.next == nil {
			continue
		}
		for ov := b.next; ov != nil; {
			nxt := ov.next
			ov.next = t.free
			//lint:allow guardinfer Reset runs between windows after every worker has quiesced; the free list has a single owner here
			t.free = ov
			ov = nxt
		}
		b.n = 0
		b.next = nil
	}
	t.size.Store(0)
	t.tracer = nil
	t.base = 0
}

// newBucket pops a recycled overflow bucket or allocates a fresh one.
func (t *Shared) newBucket() *bucket {
	t.freeMu.Lock()
	nb := t.free
	if nb != nil {
		t.free = nb.next
	}
	t.freeMu.Unlock()
	if nb != nil {
		return nb
	}
	t.extra.Add(1)
	return &bucket{}
}

// DirBuckets reports the directory size, the pool's size-class key.
func (t *Shared) DirBuckets() int { return len(t.buckets) }

// SetTracer attaches a cache-simulation tracer. Only set it for
// single-threaded profile runs: the tracer is called under the bucket
// latch on insert but latch-free on probe.
func (t *Shared) SetTracer(tr cachesim.Tracer, base uint64) {
	t.tracer = tr
	t.base = base
}

// Adjacent buckets sharing a line is paper-faithful: NPJ keeps the bucket
// directory compact (padding 88->128 bytes would grow it 45%), and the hash
// spreads concurrent inserts across the directory, so neighbouring-bucket
// contention is rare by construction.
type sharedBucket struct { //lint:allow falseshare compact bucket directory is intentional; hash spreads writers
	mu sync.Mutex
	bucket
}

// NewShared creates a concurrently writable table sized for n tuples.
func NewShared(n int) *Shared {
	nb := nextPow2(n/2 + 1)
	return &Shared{buckets: make([]sharedBucket, nb), mask: uint32(nb - 1), pref: probePrefetch.Load()}
}

// Insert adds a tuple under the bucket latch with the same O(1)
// head-insertion scheme as Table (see Table.spill).
func (t *Shared) Insert(x tuple.Tuple) {
	t.insertLatched(x)
	t.size.Add(1)
}

// insertLatched is Insert without the size count, which InsertBatch adds
// once per batch: the counter is one cache line every writer would
// otherwise fight over per tuple.
//
//iawj:hotpath
func (t *Shared) insertLatched(x tuple.Tuple) {
	idx := Hash(x.Key) & t.mask
	sb := &t.buckets[idx]
	sb.mu.Lock()
	b := &sb.bucket
	if t.tracer != nil {
		t.tracer.Access(t.base + uint64(idx)*bucketBytes)
		t.tracer.Op(6) // hash + latch + store
	}
	if b.n == bucketCap {
		nb := t.newBucket()
		*nb = *b
		b.next = nb
		b.n = 0
		if t.tracer != nil {
			t.tracer.Access(t.base + uint64(idx)*bucketBytes + uint64(t.extra.Load())*(1<<20))
			t.tracer.Op(4)
		}
	}
	b.tuples[b.n] = x
	b.n++
	sb.mu.Unlock()
}

// Size returns the number of stored tuples.
func (t *Shared) Size() int64 { return t.size.Load() }

// MemBytes reports the logical footprint.
func (t *Shared) MemBytes() int64 {
	return int64(len(t.buckets))*bucketBytes + t.extra.Load()*bucketBytes
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
