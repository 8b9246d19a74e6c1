package lazy

import (
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/radix"
	"repro/internal/tuple"
)

// PRJ is the Parallel Radix Join: both relations are physically subdivided
// on the radix of hashed keys so each build-side partition fits in cache,
// then a cache-resident hash join runs per partition with no sharing
// between threads. The number of radix bits #r is its key knob
// (Figure 18): more bits cost more partitioning but make probing cheaper.
// Under high key skew only a few partitions carry the bulk of the data, so
// few threads stay busy — the sensitivity Figure 13 shows.
//
// The partition phase runs the radix scatter (radix.Partitioner); the
// per-partition build and probe run the table kernels NPJ and SHJ run,
// which hash each key again inside their prefetch pipelines. The
// per-partition tables index on the hash bits *above* the radix (SetShift)
// — every key in a partition shares the low #r hash bits, so indexing on
// them would collapse the partition into a handful of chains. All kernel
// state comes from the run's pool.
type PRJ struct{}

// Name implements core.Algorithm.
func (PRJ) Name() string { return "PRJ" }

// prjRun is the state PRJ's workers share, kept across calls
// (core.RunState): the partitions, per side and worker, which alias the
// workers' partitioners' buffers until the run ends; and the dynamic
// partition queue of the join phase.
type prjRun struct {
	parts [2][][]tuple.Relation
	next  atomic.Int64
}

// size readies the state for a run of threads workers.
func (st *prjRun) size(threads int) {
	for i := range st.parts {
		st.parts[i] = slices.Grow(st.parts[i][:0], threads)[:threads]
	}
	st.next.Store(0)
}

// clear drops the run's references to the partitioners' buffers.
func (st *prjRun) clear() {
	for i := range st.parts {
		clear(st.parts[i])
	}
}

// Run implements core.Algorithm. The per-tuple work is in the partition
// and table kernels and the sink's pair walk; this is per-partition
// orchestration.
func (PRJ) Run(ctx *core.ExecContext) error {
	bits := ctx.Knobs.RadixBits
	fanout := radix.Fanout(bits)

	st := core.RunState[prjRun](ctx)
	st.size(ctx.Threads)

	ctx.Parallel(func(tid int) {
		tm := ctx.M.T(tid)
		ctx.WaitWindow(tid)

		// Phase 1: physically partition this thread's chunks.
		ctx.Begin(tid, metrics.PhasePartition)
		pr, ps := ctx.Partitioner(tid), ctx.Partitioner(tid)
		lo, hi := core.Chunk(len(ctx.R), ctx.Threads, tid)
		tm.AddTuples(int64(hi - lo))
		st.parts[0][tid] = pr.Partition(ctx.R[lo:hi], bits, ctx.Tracer, 0)
		cp := int64(hi-lo) * tuple.Bytes // the physical copy of R's chunk
		lo, hi = core.Chunk(len(ctx.S), ctx.Threads, tid)
		tm.AddTuples(int64(hi - lo))
		st.parts[1][tid] = ps.Partition(ctx.S[lo:hi], bits, ctx.Tracer, 1<<34)
		ctx.M.MemAdd(cp + int64(hi-lo)*tuple.Bytes) // and of S's
		ctx.Begin(tid, metrics.PhaseOther)
		ctx.Barrier()

		// Phase 2: cache-resident hash join per partition, partitions
		// handed out dynamically.
		k := core.NewSink(ctx, tid)
		hits := ctx.Hits(tid, matchBatch)
		for {
			p := int(st.next.Add(1)) - 1
			if p >= fanout {
				break
			}
			ctx.Begin(tid, metrics.PhaseBuildSort)
			nR := 0
			for _, parts := range st.parts[0] {
				nR += len(parts[p])
			}
			if nR == 0 {
				continue
			}
			tm.AddTuples(int64(nR))
			table := ctx.Table(tid, nR)
			table.SetShift(bits)
			if ctx.Tracer != nil {
				table.SetTracer(ctx.Tracer, uint64(p)<<22|1<<40)
			}
			for _, parts := range st.parts[0] {
				table.InsertBatch(parts[p])
			}
			ctx.M.MemAdd(table.MemBytes())

			ctx.Begin(tid, metrics.PhaseProbe)
			k.Refresh()
			for _, parts := range st.parts[1] {
				probes := parts[p]
				tm.AddTuples(int64(len(probes)))
				for len(probes) > 0 {
					n := min(matchBatch, len(probes))
					k.Refresh()
					hits = table.ProbeRuns(probes[:n], hits[:0])
					k.Hits(hits, true)
					probes = probes[n:]
				}
			}
			ctx.M.MemAdd(-table.MemBytes()) // partition table released
			ctx.PutTable(tid, table)
		}
		k.Close()
		ctx.EndPhase(tid)
	})
	st.clear()
	ctx.M.MemSampleNow(ctx.NowMs())
	return nil
}
