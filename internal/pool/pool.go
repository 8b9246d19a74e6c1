// Package pool recycles per-window join state across windows.
//
// Every window of a streaming join needs the same transient structures:
// hash-table directories and overflow buckets, partitioner scratch, the
// physical partition copies of the sort joins, probe hit buffers, the
// result batches of the output path, and the run's metrics collector.
// Allocating them fresh per window makes a memory-bound kernel GC-bound —
// the overhead partition-based stream joins like PanJoin explicitly
// engineer away. Pool keeps freelists of all of them behind a Reset
// protocol: acquire at window start, release at window end, and the next
// window of similar shape runs at zero steady-state allocations
// (enforced by the testing.AllocsPerRun tests in this package).
//
// All methods are safe for concurrent use — workers of one window and
// concurrent windows may share one Pool — and all methods accept a nil
// receiver, falling back to plain allocation, so algorithm code calls the
// pool unconditionally and a run without a pool behaves exactly as before.
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
// 2^c <= cap < 2^(c+1), so every buffer of a class >= bufClass(n) serves a
// request for n.
type bufs[T any] [classes][][]T

// bufClass is the smallest class whose every buffer holds n elements.
func bufClass(n int) int {
	if n <= 1 {
		return 0
	}
	return min(bits.Len(uint(n-1)), classes-1)
}

// get pops a buffer from the smallest non-empty class that serves n, or
// returns nil: a batch request must not hold a run buffer while one of its
// own size is free.
func (b *bufs[T]) get(n int) []T {
	for c := bufClass(n); c < classes; c++ {
		l := len(b[c])
		if l == 0 || cap(b[c][l-1]) < n { // the capacity check only ever fails in the clamped top class
			continue
		}
		buf := b[c][l-1]
		b[c] = b[c][:l-1]
		return buf[:0]
	}
	return nil
}

// put files buf under the class of its capacity, which must be non-zero.
func (b *bufs[T]) put(buf []T) {
	c := min(bits.Len(uint(cap(buf)))-1, classes-1)
	b[c] = append(b[c], buf[:0])
}

// newBuf allocates an empty buffer for a missed request of n: the whole
// class capacity, so that its release lands in the class the next request
// for n looks in.
func newBuf[T any](n int) []T {
	return make([]T, 0, max(n, 1<<bufClass(n)))
}

// Pool is a reusable-state arena for window joins. The zero value and nil
// are both ready to use; nil never pools.
type Pool struct {
	mu      sync.Mutex
	tables  [classes][]*hashtable.Table
	shared  [classes][]*hashtable.Shared
	parters []*radix.Partitioner
	tuples  bufs[tuple.Tuple]
	hits    bufs[hashtable.Hit]
	u32s    bufs[uint32]
	results bufs[tuple.JoinResult]
	collect []*metrics.Collector
	stats   metrics.PoolStats
}

// Stats reads the pool's hit/miss counters and retained bytes; the zero
// reading for a nil pool. It allocates nothing.
func (p *Pool) Stats() metrics.PoolStats {
	if p == nil {
		return metrics.PoolStats{}
	}
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

// calibrateOnce runs the probe-prefetch distance calibration the first
// time any Pool is built. Pool construction marks the start of real
// windowed work (benchmark harness or driver setup, never a hot loop), so
// it is the natural once-per-process point to measure the host and pin
// the batched kernels' pipeline depth to it.
var calibrateOnce sync.Once

// New returns an empty Pool. The first Pool of the process calibrates the
// hashtable probe-prefetch distance on the running host
// (hashtable.CalibrateProbePrefetch); explicit SetProbePrefetchDistance
// calls afterwards still win.
func New() *Pool {
	calibrateOnce.Do(func() {
		hashtable.SetProbePrefetchDistance(hashtable.CalibrateProbePrefetch())
	})
	return &Pool{}
}

// sizeClass maps a directory bucket count (a power of two) to its class.
func sizeClass(nb int) int {
	c := 0
	for nb > 1 && c < classes-1 {
		nb >>= 1
		c++
	}
	return c
}

// dirFor mirrors hashtable's directory sizing for a tuple capacity hint.
func dirFor(n int) int {
	nb := 1
	for nb < n/2+1 {
		nb <<= 1
	}
	return nb
}

// Table returns a single-writer table sized for n tuples with the given
// hash shift, recycled when one of the right size class is free.
func (p *Pool) Table(n, shift int) *hashtable.Table {
	if p == nil {
		t := hashtable.New(n)
		t.SetShift(shift)
		return t
	}
	c := sizeClass(dirFor(n))
	p.mu.Lock()
	var t *hashtable.Table
	if l := len(p.tables[c]); l > 0 {
		t = p.tables[c][l-1]
		p.tables[c] = p.tables[c][:l-1]
		p.acquired(metrics.PoolTable, true, t.MemBytes())
	} else {
		p.acquired(metrics.PoolTable, false, 0)
	}
	p.mu.Unlock()
	if t == nil {
		t = hashtable.New(n)
	} else {
		t.Grow(n)
	}
	t.SetShift(shift)
	return t
}

// PutTable resets t and returns it to its size-class freelist.
func (p *Pool) PutTable(t *hashtable.Table) {
	if p == nil || t == nil {
		return
	}
	t.Reset()
	c := sizeClass(t.DirBuckets())
	p.mu.Lock()
	p.tables[c] = append(p.tables[c], t)
	p.stats.RetainedBytes += t.MemBytes()
	p.mu.Unlock()
}

// Shared returns a concurrently writable table sized for n tuples.
func (p *Pool) Shared(n int) *hashtable.Shared {
	if p == nil {
		return hashtable.NewShared(n)
	}
	c := sizeClass(dirFor(n))
	p.mu.Lock()
	var t *hashtable.Shared
	if l := len(p.shared[c]); l > 0 {
		t = p.shared[c][l-1]
		p.shared[c] = p.shared[c][:l-1]
		p.acquired(metrics.PoolShared, true, t.MemBytes())
	} else {
		p.acquired(metrics.PoolShared, false, 0)
	}
	p.mu.Unlock()
	if t == nil {
		t = hashtable.NewShared(n)
	} else {
		t.Grow(n)
	}
	return t
}

// PutShared resets t and returns it to its size-class freelist. Call only
// after every worker of the window has quiesced.
func (p *Pool) PutShared(t *hashtable.Shared) {
	if p == nil || t == nil {
		return
	}
	t.Reset()
	c := sizeClass(t.DirBuckets())
	p.mu.Lock()
	p.shared[c] = append(p.shared[c], t)
	p.stats.RetainedBytes += t.MemBytes()
	p.mu.Unlock()
}

// Partitioner returns a reusable SWWCB partitioning kernel.
func (p *Pool) Partitioner() *radix.Partitioner {
	if p == nil {
		return radix.NewPartitioner()
	}
	p.mu.Lock()
	var pr *radix.Partitioner
	if l := len(p.parters); l > 0 {
		pr = p.parters[l-1]
		p.parters = p.parters[:l-1]
		p.acquired(metrics.PoolPartitioner, true, pr.MemBytes())
	} else {
		p.acquired(metrics.PoolPartitioner, false, 0)
	}
	p.mu.Unlock()
	if pr == nil {
		pr = radix.NewPartitioner()
	}
	return pr
}

// PutPartitioner returns pr to the freelist. The partitions returned by
// its last Partition call alias its buffers, so release it only once they
// are no longer read — in parallel joins, after all workers finished.
func (p *Pool) PutPartitioner(pr *radix.Partitioner) {
	if p == nil || pr == nil {
		return
	}
	p.mu.Lock()
	p.parters = append(p.parters, pr)
	p.stats.RetainedBytes += pr.MemBytes()
	p.mu.Unlock()
}

// Tuples returns an empty tuple buffer with capacity at least n.
func (p *Pool) Tuples(n int) []tuple.Tuple {
	if p == nil {
		return make([]tuple.Tuple, 0, n)
	}
	p.mu.Lock()
	buf := p.tuples.get(n)
	p.acquired(metrics.PoolTuples, buf != nil, int64(cap(buf))*tuple.Bytes)
	p.mu.Unlock()
	if buf == nil {
		buf = newBuf[tuple.Tuple](n)
	}
	return buf
}

// PutTuples returns a buffer taken with Tuples to the freelist of its
// capacity class.
func (p *Pool) PutTuples(buf []tuple.Tuple) {
	if p == nil || cap(buf) == 0 {
		return
	}
	p.mu.Lock()
	p.tuples.put(buf)
	p.stats.RetainedBytes += int64(cap(buf)) * tuple.Bytes
	p.mu.Unlock()
}

// hitBytes is the in-memory size of one hashtable.Hit.
const hitBytes = int64(unsafe.Sizeof(hashtable.Hit{}))

// Hits returns an empty probe hit buffer with capacity at least n. A probe
// makes at most one hit, so n is the probe batch's length whatever the
// keys' duplication.
func (p *Pool) Hits(n int) []hashtable.Hit {
	if p == nil {
		return make([]hashtable.Hit, 0, n)
	}
	p.mu.Lock()
	buf := p.hits.get(n)
	p.acquired(metrics.PoolHits, buf != nil, int64(cap(buf))*hitBytes)
	p.mu.Unlock()
	if buf == nil {
		buf = newBuf[hashtable.Hit](n)
	}
	return buf
}

// PutHits returns a buffer taken with Hits to the freelist of its capacity
// class. The runs its stale hits alias belong to pooled tables.
func (p *Pool) PutHits(buf []hashtable.Hit) {
	if p == nil || cap(buf) == 0 {
		return
	}
	p.mu.Lock()
	p.hits.put(buf)
	p.stats.RetainedBytes += int64(cap(buf)) * hitBytes
	p.mu.Unlock()
}

// resultBytes is the in-memory size of one tuple.JoinResult.
const resultBytes = 24

// Results returns an empty result batch with capacity at least n.
func (p *Pool) Results(n int) []tuple.JoinResult {
	if p == nil {
		return make([]tuple.JoinResult, 0, n)
	}
	p.mu.Lock()
	buf := p.results.get(n)
	p.acquired(metrics.PoolResults, buf != nil, int64(cap(buf))*resultBytes)
	p.mu.Unlock()
	if buf == nil {
		buf = newBuf[tuple.JoinResult](n)
	}
	return buf
}

// PutResults returns a batch taken with Results to the freelist of its
// capacity class.
func (p *Pool) PutResults(buf []tuple.JoinResult) {
	if p == nil || cap(buf) == 0 {
		return
	}
	p.mu.Lock()
	p.results.put(buf)
	p.stats.RetainedBytes += int64(cap(buf)) * resultBytes
	p.mu.Unlock()
}

// U32 returns an empty uint32 scratch slice with capacity at least n.
func (p *Pool) U32(n int) []uint32 {
	if p == nil {
		return make([]uint32, 0, n)
	}
	p.mu.Lock()
	buf := p.u32s.get(n)
	p.acquired(metrics.PoolU32, buf != nil, int64(cap(buf))*4)
	p.mu.Unlock()
	if buf == nil {
		buf = newBuf[uint32](n)
	}
	return buf
}

// PutU32 returns a scratch slice taken with U32 to the freelist of its
// capacity class.
func (p *Pool) PutU32(buf []uint32) {
	if p == nil || cap(buf) == 0 {
		return
	}
	p.mu.Lock()
	p.u32s.put(buf)
	p.stats.RetainedBytes += int64(cap(buf)) * 4
	p.mu.Unlock()
}

// collectorBytes is what a collector for the given worker count holds:
// two histograms and the phase clock per worker.
func collectorBytes(threads int) int64 {
	return int64(threads) * int64(unsafe.Sizeof(metrics.ThreadMetrics{}))
}

// Collector returns a zeroed metrics collector for a run of the given
// worker count (at least one), recycled when a run of that count has
// returned one.
func (p *Pool) Collector(threads int) *metrics.Collector {
	if p == nil {
		return metrics.NewCollector(threads)
	}
	threads = max(threads, 1)
	p.mu.Lock()
	var c *metrics.Collector
	for i := len(p.collect) - 1; i >= 0; i-- {
		if p.collect[i].Threads() == threads {
			c = p.collect[i]
			p.collect = append(p.collect[:i], p.collect[i+1:]...)
			break
		}
	}
	p.acquired(metrics.PoolCollector, c != nil, collectorBytes(threads))
	p.mu.Unlock()
	if c == nil {
		c = metrics.NewCollector(threads)
	}
	return c
}

// PutCollector resets c and returns it to the freelist. Call only after
// the run's workers have quiesced and its Result has been snapshotted.
func (p *Pool) PutCollector(c *metrics.Collector) {
	if p == nil || c == nil {
		return
	}
	c.Reset()
	p.mu.Lock()
	p.collect = append(p.collect, c)
	p.stats.RetainedBytes += collectorBytes(c.Threads())
	p.mu.Unlock()
}
