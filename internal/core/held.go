package core

import (
	"slices"
	"unsafe"

	"repro/internal/hashtable"
	"repro/internal/radix"
	"repro/internal/tuple"
)

// held is what one worker of a run has taken from the pool and not given
// back. Every take through the ExecContext records here, and Run gives it
// all back once the algorithm has returned, so an algorithm holds its
// pooled state without a release path of its own. A worker appends only
// to its own lists, so a take needs no lock; the lists live in the run's
// frame, so a warm call allocates none of them.
type held struct {
	tuples  [][]tuple.Tuple
	hits    [][]hashtable.Hit
	u32s    [][]uint32
	tables  []*hashtable.Table
	shared  []*hashtable.Shared
	parters []*radix.Partitioner
}

// hold records t in list and returns it.
func hold[T any](list *[]T, t T) T {
	*list = append(*list, t)
	return t
}

// Tuples takes an empty tuple buffer of capacity at least n for worker tid.
func (ctx *ExecContext) Tuples(tid, n int) []tuple.Tuple {
	return hold(&ctx.held[tid].tuples, ctx.pool.Tuples(n))
}

// Hits takes an empty probe hit buffer of capacity at least n for worker tid.
func (ctx *ExecContext) Hits(tid, n int) []hashtable.Hit {
	return hold(&ctx.held[tid].hits, ctx.pool.Hits(n))
}

// U32 takes an empty uint32 scratch slice of capacity at least n for worker tid.
func (ctx *ExecContext) U32(tid, n int) []uint32 { return hold(&ctx.held[tid].u32s, ctx.pool.U32(n)) }

// Table takes a single-writer table for n tuples for worker tid.
func (ctx *ExecContext) Table(tid, n int) *hashtable.Table {
	return hold(&ctx.held[tid].tables, ctx.pool.Table(n))
}

// Shared takes a concurrently writable table for n tuples. Call it before
// the workers start: worker 0's list holds it.
func (ctx *ExecContext) Shared(n int) *hashtable.Shared {
	return hold(&ctx.held[0].shared, ctx.pool.Shared(n))
}

// Partitioner takes a radix partitioning kernel for worker tid; the
// partitions it returns alias its buffers until the run ends.
func (ctx *ExecContext) Partitioner(tid int) *radix.Partitioner {
	return hold(&ctx.held[tid].parters, ctx.pool.Partitioner())
}

// PutTable gives back a table worker tid took, before the run ends: a
// table no other worker reads, done with while the worker goes on.
func (ctx *ExecContext) PutTable(tid int, t *hashtable.Table) {
	h := &ctx.held[tid]
	i := slices.Index(h.tables, t)
	h.tables = slices.Delete(h.tables, i, i+1)
	ctx.pool.PutTable(t)
}

// PutTuples gives back, before the run ends, the buffer worker tid took
// that buf is a prefix of.
func (ctx *ExecContext) PutTuples(tid int, buf []tuple.Tuple) {
	h := &ctx.held[tid]
	i := slices.IndexFunc(h.tuples, func(b []tuple.Tuple) bool { return unsafe.SliceData(b) == unsafe.SliceData(buf) })
	ctx.pool.PutTuples(h.tuples[i])
	h.tuples = slices.Delete(h.tuples, i, i+1)
}

// giveBack returns everything the run's workers still hold to the pool.
// Run calls it once the algorithm has returned, failed or not: every
// worker has finished, so nothing given back is still read.
func (ctx *ExecContext) giveBack() {
	p := ctx.pool
	for i := range ctx.held {
		h := &ctx.held[i]
		giveAll(&h.tuples, p.PutTuples)
		giveAll(&h.hits, p.PutHits)
		giveAll(&h.u32s, p.PutU32)
		giveAll(&h.tables, p.PutTable)
		giveAll(&h.shared, p.PutShared)
		giveAll(&h.parters, p.PutPartitioner)
	}
}

// giveAll puts every entry of list and empties it.
func giveAll[T any](list *[]T, put func(T)) {
	for _, t := range *list {
		put(t)
	}
	clear(*list)
	*list = (*list)[:0]
}
