// Package pool recycles per-window join state across windows.
//
// Every window of a streaming join needs the same transient structures:
// hash-table directories and overflow buckets, partitioner scratch, the
// physical partition copies of the sort joins, probe hit buffers, the
// result batches of the output path, and the run frame of a whole call,
// which holds the run's metrics collector.
// Allocating them fresh per window makes a memory-bound kernel GC-bound —
// the overhead partition-based stream joins like PanJoin explicitly
// engineer away. Pool keeps freelists of all of them behind a Reset
// protocol: acquire at window start, release at window end, and the next
// window of similar shape runs at zero steady-state allocations
// (enforced by the testing.AllocsPerRun tests in this package).
//
// All methods are safe for concurrent use — workers of one window and
// concurrent windows may share one Pool. Every join draws from one: a
// one-shot join gets a fresh pool of its own, so there is one allocation
// path, and a cold pool allocates no more than plain allocation would —
// a miss allocates exactly what was asked, and a release allocates
// nothing (a table's store folds its spills at its next take, not at
// Reset).
//
// Tables are free-listed per directory size class: handing a 2^16-bucket
// NPJ directory to a radix join that asked for 2^6 buckets would make its
// per-partition Reset walk five orders of magnitude too much memory.
// Buffers are free-listed per power-of-two capacity class for the same
// reason in the other direction: a 64-tuple batch request must not walk
// off with a 16 MB run buffer and leave the next run to allocate afresh.
//
// The pool counts every acquire as a hit or a miss per kind and keeps the
// bytes its freelists retain (Stats), so an allocation regression can be
// traced to the kind that missed (OBSERVABILITY.md).
package pool

import (
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/hashtable"
	"repro/internal/metrics"
	"repro/internal/radix"
	"repro/internal/tuple"
)

// classes is the number of power-of-two size classes tracked, for table
// directories and buffer capacities alike.
const classes = 32

// bufs holds the freelists of one buffer kind: class c keeps buffers with
// 2^(c-1) < cap <= 2^c, the class their capacity fills, so every buffer of
// a class above bufClass(n) serves a request for n.
type bufs[T any] [classes][][]T

// bufClass is the smallest class whose every buffer holds n elements.
func bufClass(n int) int {
	if n <= 1 {
		return 0
	}
	return min(bits.Len(uint(n-1)), classes-1)
}

// get takes the smallest buffer of n's own class that holds n, or else
// pops the smallest non-empty class above it, or returns nil: a batch
// request must not hold a run buffer while one of its own size is free.
func (b *bufs[T]) get(n int) []T {
	c := bufClass(n)
	best := -1
	for i, buf := range b[c] {
		if cap(buf) >= n && (best < 0 || cap(buf) < cap(b[c][best])) {
			best = i
		}
	}
	if best < 0 {
		for c++; c < classes && len(b[c]) == 0; c++ {
		}
		if c == classes {
			return nil
		}
		best = len(b[c]) - 1
	}
	buf := b[c][best]
	b[c] = slices.Delete(b[c], best, best+1)
	return buf
}

// take hands out an empty buffer of b's kind k with capacity at least n:
// a freed one, or on a miss a new one. A miss allocates exactly n (at
// least one), so that a run that never comes back to the pool allocates
// what it asked for — unless n's class holds freed buffers, all too
// small: then the pool is warm, and a slightly larger request would miss
// again in every later window, so the miss takes the class's full size.
func take[T any](p *Pool, b *bufs[T], k metrics.PoolKind, n int) []T {
	p.mu.Lock()
	c := bufClass(n)
	outgrown := len(b[c]) > 0
	buf := b.get(n)
	p.acquired(k, buf != nil, int64(cap(buf))*int64(unsafe.Sizeof(*new(T))))
	p.mu.Unlock()
	if buf == nil {
		size := max(n, 1)
		if outgrown {
			size = max(size, 1<<c)
		}
		buf = make([]T, 0, size)
	}
	return buf
}

// give files a buffer handed out by take under the class of its capacity.
func give[T any](p *Pool, b *bufs[T], buf []T) {
	if cap(buf) > 0 {
		push(p, &b[bufClass(cap(buf))], buf[:0], int64(cap(buf))*int64(unsafe.Sizeof(*new(T))))
	}
}

// Pool is a reusable-state arena for window joins. The zero value is ready
// to use.
type Pool struct {
	mu      sync.Mutex
	tables  [classes][]*hashtable.Table
	shared  [classes][]*hashtable.Shared
	parters []*radix.Partitioner
	tuples  bufs[tuple.Tuple]
	hits    bufs[hashtable.Hit]
	u32s    bufs[uint32]
	results bufs[tuple.JoinResult]
	frames  []Frame
	stats   metrics.PoolStats
}

// Stats reads the pool's hit/miss counters and retained bytes. It
// allocates nothing.
func (p *Pool) Stats() metrics.PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// acquired counts one acquire of kind k, a hit that took bytes off the
// freelists or a miss. Call with mu held.
func (p *Pool) acquired(k metrics.PoolKind, hit bool, bytes int64) {
	if hit {
		p.stats.Hits[k]++
		p.stats.RetainedBytes -= bytes
	} else {
		p.stats.Misses[k]++
	}
}

// New returns an empty Pool.
func New() *Pool { return &Pool{} }

// pop takes the newest object off list, counting the acquire as kind k:
// a hit of the object's bytes or, on an empty list, a miss.
func pop[T interface{ MemBytes() int64 }](p *Pool, list *[]T, k metrics.PoolKind) (t T, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l := len(*list); l > 0 {
		t, *list, ok = (*list)[l-1], (*list)[:l-1], true
		p.acquired(k, true, t.MemBytes())
	} else {
		p.acquired(k, false, 0)
	}
	return t, ok
}

// push files t, which holds bytes, on list.
func push[T any](p *Pool, list *[]T, t T, bytes int64) {
	p.mu.Lock()
	*list = append(*list, t)
	p.stats.RetainedBytes += bytes
	p.mu.Unlock()
}

// table is what the pool needs of a hash table kind.
type table interface {
	MemBytes() int64
	DirBuckets() int
	Grow(n int)
	Reset()
}

// takeTable pops a table of n's directory size class off lists, grown to
// n, counting the acquire as kind k; a miss builds one with fresh.
func takeTable[T table](p *Pool, lists *[classes][]T, k metrics.PoolKind, n int, fresh func(int) T) T {
	t, ok := pop(p, &lists[min(hashtable.DirBits(n), classes-1)], k)
	if !ok {
		return fresh(n)
	}
	t.Grow(n)
	return t
}

// giveTable resets t and files it under its directory size class.
func giveTable[T table](p *Pool, lists *[classes][]T, t T) {
	t.Reset()
	push(p, &lists[min(bits.Len(uint(t.DirBuckets()))-1, classes-1)], t, t.MemBytes())
}

// Table returns a single-writer table sized for n tuples, recycled when
// one of the right size class is free.
func (p *Pool) Table(n int) *hashtable.Table {
	return takeTable(p, &p.tables, metrics.PoolTable, n, hashtable.New)
}

// PutTable resets t and returns it to its size-class freelist.
func (p *Pool) PutTable(t *hashtable.Table) { giveTable(p, &p.tables, t) }

// Shared returns a concurrently writable table sized for n tuples.
func (p *Pool) Shared(n int) *hashtable.Shared {
	return takeTable(p, &p.shared, metrics.PoolShared, n, hashtable.NewShared)
}

// PutShared resets t and returns it to its size-class freelist. Call only
// after every worker of the window has quiesced.
func (p *Pool) PutShared(t *hashtable.Shared) { giveTable(p, &p.shared, t) }

// Partitioner returns a reusable radix partitioning kernel.
func (p *Pool) Partitioner() *radix.Partitioner {
	if pr, ok := pop(p, &p.parters, metrics.PoolPartitioner); ok {
		return pr
	}
	return radix.NewPartitioner()
}

// PutPartitioner returns pr to the freelist. The partitions returned by
// its last Partition call alias its buffers, so release it only once they
// are no longer read — in parallel joins, after all workers finished.
func (p *Pool) PutPartitioner(pr *radix.Partitioner) { push(p, &p.parters, pr, pr.MemBytes()) }

// Tuples returns an empty tuple buffer with capacity at least n.
func (p *Pool) Tuples(n int) []tuple.Tuple { return take(p, &p.tuples, metrics.PoolTuples, n) }

// PutTuples returns a buffer taken with Tuples to the freelist of its
// capacity class.
func (p *Pool) PutTuples(buf []tuple.Tuple) { give(p, &p.tuples, buf) }

// Hits returns an empty probe hit buffer with capacity at least n. A probe
// makes at most one hit, so n is the probe batch's length whatever the
// keys' duplication.
func (p *Pool) Hits(n int) []hashtable.Hit { return take(p, &p.hits, metrics.PoolHits, n) }

// PutHits returns a buffer taken with Hits to the freelist of its capacity
// class. The runs its stale hits alias belong to pooled tables.
func (p *Pool) PutHits(buf []hashtable.Hit) { give(p, &p.hits, buf) }

// Results returns an empty result batch with capacity at least n.
func (p *Pool) Results(n int) []tuple.JoinResult {
	return take(p, &p.results, metrics.PoolResults, n)
}

// PutResults returns a batch taken with Results to the freelist of its
// capacity class.
func (p *Pool) PutResults(buf []tuple.JoinResult) { give(p, &p.results, buf) }

// U32 returns an empty uint32 scratch slice with capacity at least n.
func (p *Pool) U32(n int) []uint32 { return take(p, &p.u32s, metrics.PoolU32, n) }

// PutU32 returns a scratch slice taken with U32 to the freelist of its
// capacity class.
func (p *Pool) PutU32(buf []uint32) { give(p, &p.u32s, buf) }

// Frame is a call's run frame as the pool sees it: internal/core owns
// the type, which the pool cannot import; the pool only keeps frames
// between calls, counted in the bytes they hold — the run's metrics
// collector among them.
type Frame interface{ MemBytes() int64 }

// Frame returns a run frame PutFrame filed, or nil when none is free.
func (p *Pool) Frame() Frame {
	f, _ := pop(p, &p.frames, metrics.PoolFrame)
	return f
}

// PutFrame files f for the next call. Call it only once the call's
// workers have quiesced.
func (p *Pool) PutFrame(f Frame) { push(p, &p.frames, f, f.MemBytes()) }
