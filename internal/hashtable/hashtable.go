// Package hashtable implements the bucket-chain hash tables used by the
// hash-based join algorithms.
//
// The directory follows the bucket-chain design of the Balkesen et al.
// benchmark that the paper builds on — fixed-capacity buckets with overflow
// chaining — but the chains are key-grouped: a bucket slot holds a distinct
// key, once, and a key stored more than once keeps all its tuples in one
// contiguous run in a pooled per-table arena, in insertion order. A probe
// therefore finds its key at most once and reports the stored run (Hit) —
// one step for a duplicate key as for a unique one, what a merge join pays
// — where a chain of tuples costs a key compare and a copy per match. Two
// tables cover the studied algorithms:
//
//   - Table: single-writer table (per-thread SHJ state, per-partition PRJ
//     joins).
//   - Shared: one table concurrently populated by all threads with
//     per-bucket latches (NPJ's build phase), exhibiting exactly the access
//     conflicts the paper attributes to NPJ under high key duplication.
//
// Both are driven a batch at a time (batch.go) by one build kernel and one
// pipelined probe kernel — Shared places under its latches and probes its
// latched directory — and accept an optional cachesim.Tracer so profile
// runs can feed the simulated cache hierarchy the table's logical addresses.
package hashtable

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/cachesim"
	"repro/internal/tuple"
)

// bucketCap distinct keys per bucket: 4 entries * 16 bytes + header fits
// the cache-line-conscious layout of the original benchmark.
const bucketCap = 4

// bucketBytes is the logical footprint of one bucket, used to synthesize
// addresses for the cache simulator and for memory accounting.
const bucketBytes = 80

// minRun is the capacity of a key's first arena run; a full run moves to
// one of twice the capacity, so a key stored n times cost O(log n) arena
// takes and fewer than 2n tuple copies.
const minRun = 4

// bucket holds up to bucketCap distinct keys, filled from slot 0: tuples[i]
// is the first tuple stored under its key, and byte i of tags that key's
// tag (tagOf; zero while the slot is free), so the one header word says how
// many slots are taken, answers "is this key new here?" — the question
// every insert of a unique key asks — and "which slot could hold it?", all
// without reading a slot.
type bucket struct {
	tags   uint32
	tuples [bucketCap]tuple.Tuple
	ext    *ext // nil while the bucket's keys are at most bucketCap, each stored once
}

// tagsFull is the top bit of the last slot's tag: set once the bucket holds
// bucketCap keys.
const tagsFull = 0x80 << (8 * (bucketCap - 1))

// slots is how many of a bucket's slots are taken, given its tags: every
// tag has its top bit set and slots fill in order, so the highest set bit
// is the last taken slot's.
//
//iawj:inline
func slots(tags uint32) int { return bits.Len32(tags) >> 3 }

// ext is what a bucket of unique keys does without: the bucket that takes
// the chain's distinct keys beyond bucketCap, in arrival order, and the
// arena runs of keys stored more than once — runs[i], when not empty, is
// every tuple stored under tuples[i].Key, the slot's own first.
type ext struct {
	next *bucket
	runs [bucketCap][]tuple.Tuple
}

// extBytes is the footprint of one ext.
const extBytes = 8 + bucketCap*24

// tagOf spreads seven hash bits the directory index does not use, under a
// set top bit, over four bytes — the form candidates compares against a
// bucket's tags. The top bit keeps a tag apart from the zero byte of a
// free slot.
//
//iawj:inline
func tagOf(h uint32) uint32 { return (h>>25 | 0x80) * 0x01010101 }

// candidates has bit 8i+7 set for every slot i of a bucket with the given
// tags whose key may hash to tag: never unset for one that does, rarely
// set for one that does not (an equal tag, or a borrow out of a lower
// matching byte) — the caller compares the keys.
//
//iawj:inline
func candidates(tags, tag uint32) uint32 {
	x := tags ^ tag
	return (x - 0x01010101) &^ x & 0x80808080
}

// put stores x, whose key has the given tag, in slot i, the first free one.
//
//iawj:inline
func (b *bucket) put(i int, x tuple.Tuple, tag uint32) {
	i &= bucketCap - 1
	b.tuples[i] = x
	b.tags |= tag & (0xff << (8 * uint(i)))
}

// stored is everything stored under slot i's key, in insertion order. The
// switch gives each slot's slice constant bounds (LINTING.md §BCE).
//
//iawj:inline
func (b *bucket) stored(i int) []tuple.Tuple {
	if e := b.ext; e != nil && len(e.runs[i&(bucketCap-1)]) > 0 {
		return e.runs[i&(bucketCap-1)]
	}
	switch i {
	case 0:
		return b.tuples[0:1:1]
	case 1:
		return b.tuples[1:2:2]
	case 2:
		return b.tuples[2:3:3]
	}
	return b.tuples[3:4:4]
}

// Hit is what a probe tuple found: every stored tuple with its key, in
// insertion order. Stored aliases the table and is valid until the table's
// next insert or Reset.
type Hit struct {
	Probe  tuple.Tuple
	Stored []tuple.Tuple
}

// slabMin is the least a slab allocates at once, in elements.
const slabMin = 256

// slab is a bump allocator over one pooled array. What the array cannot
// hold is carved from spill arrays allocated on the spot, each as large as
// everything before it; reset folds them into one larger array, so an
// epoch that repeats an earlier epoch's demand allocates nothing, in
// whatever order its takes arrive (a single array has no holes).
type slab[T any] struct {
	mem       []T
	used      int
	spill     []T // the spill array being carved
	spillUsed int
	spilled   int // elements in all of this epoch's spill arrays
}

// take carves n consecutive elements.
func (s *slab[T]) take(n int) []T {
	if s.used+n <= len(s.mem) {
		s.used += n
		return s.mem[s.used-n : s.used : s.used]
	}
	if s.spillUsed+n > len(s.spill) {
		s.spill = make([]T, max(n, len(s.mem)+s.spilled, slabMin))
		s.spilled += len(s.spill)
		s.spillUsed = 0
	}
	s.spillUsed += n
	return s.spill[s.spillUsed-n : s.spillUsed : s.spillUsed]
}

// reset starts a new epoch; everything carved is void.
func (s *slab[T]) reset() {
	if s.spilled > 0 {
		s.mem = make([]T, len(s.mem)+s.spilled)
		s.spill, s.spillUsed, s.spilled = nil, 0, 0
	}
	s.used = 0
}

// size is the slab's allocated elements.
func (s *slab[T]) size() int { return len(s.mem) + s.spilled }

// store is the pooled memory behind a directory: overflow buckets, exts and
// the arena the runs are carved from. All of it survives Reset and Grow, so
// a steady-state window over a pooled table inserts with zero allocations
// once the first window has sized it.
type store struct {
	// mu serializes the store between the writers of a Shared table, whose
	// bucket latches cover chains, not the store; nil for a single writer.
	// A key stored n times takes it O(log n) times: off the common path.
	mu *sync.Mutex

	over  slab[bucket]
	exts  slab[ext]
	arena slab[tuple.Tuple]
}

// carve takes n elements of from, one of s's slabs.
func carve[T any](s *store, from *slab[T], n int) []T {
	if s.mu != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return from.take(n)
}

// overflow returns the bucket behind b in its chain, linking an empty one
// when b is the chain's last.
func (s *store) overflow(b *bucket) *bucket {
	e := s.extOf(b)
	if e.next == nil {
		e.next = &carve(s, &s.over, 1)[0]
	}
	return e.next
}

// extOf returns b's ext, giving it an empty one when it has none.
func (s *store) extOf(b *bucket) *ext {
	if b.ext == nil {
		b.ext = &carve(s, &s.exts, 1)[0]
	}
	return b.ext
}

// grow returns an empty run of at least twice run's capacity holding what
// run holds — or first, the slot's own tuple, when there is no run yet.
func (s *store) grow(run []tuple.Tuple, first tuple.Tuple) []tuple.Tuple {
	grown := carve(s, &s.arena, max(minRun, 2*cap(run)))[:0]
	if len(run) == 0 {
		return append(grown, first)
	}
	return append(grown, run...)
}

// reset voids everything taken from the store; call once no directory
// bucket refers to it. Overflow buckets and exts are handed out zeroed, so
// the used ones are cleared here.
func (s *store) reset() {
	clear(s.over.mem[:s.over.used])
	clear(s.exts.mem[:s.exts.used])
	s.over.reset()
	s.exts.reset()
	s.arena.reset()
}

// bytes is the store's logical footprint.
func (s *store) bytes() int64 {
	return int64(s.over.size())*bucketBytes + int64(s.exts.size())*extBytes + int64(s.arena.size())*tuple.Bytes
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
	tick    uint32 // keeps pipelined stage-one loads observable (batch.go)
	size    int64  // tuples stored
	store

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
// The store survives, so a pooled table keeps its overflow buckets and its
// arena across windows of growing size.
func (t *Table) Grow(n int) {
	nb := nextPow2(n/2 + 1)
	if nb <= len(t.buckets) {
		return
	}
	t.Reset() // void what the old directory took from the store
	t.buckets = make([]bucket, nb)
	t.mask = uint32(nb - 1)
}

// Reset clears the table for reuse: the store and the directory restart
// empty, and their allocations are kept. A steady-state window over a pooled
// table therefore inserts with zero allocations once the first window has
// sized the store. It visits the dirty list, not the directory (see dirty).
func (t *Table) Reset() {
	for _, b := range t.dirty {
		b.tags, b.ext = 0, nil
	}
	t.dirty = t.dirty[:0]
	t.store.reset()
	t.size = 0
	t.tracer = nil
	t.base = 0
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

// MemBytes reports the logical memory footprint of the table — directory,
// overflow buckets, exts and arena — used for the Figure 19b
// memory-consumption timeline.
func (t *Table) MemBytes() int64 {
	return int64(len(t.buckets))*bucketBytes + t.store.bytes()
}

// Shared is a bucket-chain table concurrently populated by many threads.
// Per-bucket latches serialize inserts to the same chain, reproducing
// NPJ's access-conflict behaviour on skewed or high-duplication keys.
type Shared struct {
	buckets []sharedBucket
	mask    uint32
	pref    int32
	size    atomic.Int64

	// storeMu is store.mu. The pad keeps it off the cache line of the size
	// counter, which every batch bumps.
	_       [24]byte
	storeMu sync.Mutex
	store

	// tracer feeds profile runs; those run single-threaded, so the
	// tracer itself needs no synchronization.
	tracer cachesim.Tracer
	base   uint64
}

// Adjacent buckets sharing a line is paper-faithful: NPJ keeps the bucket
// directory compact (padding 88->128 bytes would grow it 45%), and the
// hash spreads concurrent inserts across the directory, so
// neighbouring-bucket contention is rare by construction.
type sharedBucket struct { //lint:allow falseshare compact bucket directory is intentional; hash spreads writers
	mu sync.Mutex
	bucket
}

// NewShared creates a concurrently writable table sized for n tuples.
func NewShared(n int) *Shared {
	nb := nextPow2(n/2 + 1)
	t := &Shared{buckets: make([]sharedBucket, nb), mask: uint32(nb - 1), pref: probePrefetch.Load()}
	t.store.mu = &t.storeMu
	return t
}

// Grow ensures the directory is sized for n tuples, reallocating (and
// discarding contents) when too small. Not safe for concurrent use; call
// between windows.
func (t *Shared) Grow(n int) {
	nb := nextPow2(n/2 + 1)
	if nb <= len(t.buckets) {
		return
	}
	t.Reset()
	t.buckets = make([]sharedBucket, nb)
	t.mask = uint32(nb - 1)
}

// Reset clears the table for reuse, restarting the store. Not safe for
// concurrent use; call between windows once all workers have quiesced.
// Clean buckets are skipped without writing, as in Table.Reset.
func (t *Shared) Reset() {
	for i := range t.buckets {
		if b := &t.buckets[i].bucket; b.tags != 0 {
			b.tags, b.ext = 0, nil
		}
	}
	t.store.reset()
	t.size.Store(0)
	t.tracer = nil
	t.base = 0
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

// Size returns the number of stored tuples.
func (t *Shared) Size() int64 { return t.size.Load() }

// MemBytes reports the logical footprint. Like Reset, it is for a quiesced
// table.
func (t *Shared) MemBytes() int64 {
	return int64(len(t.buckets))*bucketBytes + t.store.bytes()
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
