package lazy

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hashtable"
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
// The partition phase runs the hash-once SWWCB kernel
// (radix.Partitioner): each key is hashed exactly once and the hash rides
// along with the tuple, so the per-partition build and probe
// (InsertBatchHashed / ProbeRuns with SetShift) never rehash. The
// per-partition tables index on the hash bits *above* the radix — every
// key in a partition shares the low #r hash bits, so indexing on them
// would collapse the partition into a handful of chains. All kernel state
// comes from the window pool when one is attached.
type PRJ struct{}

// Name implements core.Algorithm.
func (PRJ) Name() string { return "PRJ" }

// Run implements core.Algorithm. The per-tuple work is in the partition
// and table kernels and the sink's pair walk; this is per-partition
// orchestration.
func (PRJ) Run(ctx *core.ExecContext) error {
	bits := ctx.Knobs.RadixBits
	fanout := radix.Fanout(bits)

	// Single-threaded untraced window builds take the fused
	// partition+build kernel: the build side scatters straight into one
	// pooled table per partition, skipping the intermediate partition
	// array entirely. Fusion pays only while the whole directory set is
	// cache-resident, hence the FuseBuildBelow gate; per-table insertion
	// order equals the unfused pipeline's, so results are identical.
	fuse := ctx.Threads == 1 && ctx.Tracer == nil && len(ctx.R) < radix.FuseBuildBelow
	var tabsR []*hashtable.Table

	// Per-thread partition pieces (tuples and their hashes), combined
	// per partition at join time. The pieces alias the per-thread
	// partitioners' buffers, released only after all workers finish.
	partsR := make([][]tuple.Relation, ctx.Threads)
	partsS := make([][]tuple.Relation, ctx.Threads)
	hashR := make([][][]uint32, ctx.Threads)
	hashS := make([][][]uint32, ctx.Threads)
	parters := make([]*radix.Partitioner, 2*ctx.Threads)

	var next atomic.Int64 // dynamic partition queue for the join phase
	var barrier sync.WaitGroup
	barrier.Add(ctx.Threads)

	core.Parallel(ctx.Threads, func(tid int) {
		tw := ctx.TraceWorker(tid)
		ctx.WaitWindow(tid)

		// Phase 1: physically partition this thread's chunks with the
		// SWWCB kernel, hashing each key once.
		ctx.Begin(tid, metrics.PhasePartition)
		pr := ctx.Pool.Partitioner()
		ps := ctx.Pool.Partitioner()
		parters[2*tid], parters[2*tid+1] = pr, ps
		lo, hi := core.Chunk(len(ctx.R), ctx.Threads, tid)
		tw.AddTuples(int64(hi - lo))
		if fuse {
			tabsR = pr.PartitionBuild(ctx.R, bits, func(n int) *hashtable.Table {
				return ctx.Pool.Table(n, bits)
			})
		} else {
			partsR[tid], hashR[tid] = pr.PartitionHashed(ctx.R[lo:hi], bits, ctx.Tracer, 0)
		}
		lo, hi = core.Chunk(len(ctx.S), ctx.Threads, tid)
		tw.AddTuples(int64(hi - lo))
		partsS[tid], hashS[tid] = ps.PartitionHashed(ctx.S[lo:hi], bits, ctx.Tracer, 1<<34)
		cp := int64(hi-lo) * 16 * 2 // physical copies of both inputs
		if fuse {
			cp = int64(hi-lo) * 16 // fused build makes no R copy
		}
		ctx.M.MemAdd(cp)
		ctx.Begin(tid, metrics.PhaseOther)
		barrier.Done()
		barrier.Wait()

		// Phase 2: cache-resident hash join per partition, partitions
		// handed out dynamically.
		k := core.NewSink(ctx, tid)
		hits := ctx.Pool.Hits(matchBatch)
		for {
			p := int(next.Add(1)) - 1
			if p >= fanout {
				break
			}
			ctx.Begin(tid, metrics.PhaseBuildSort)
			var table *hashtable.Table
			if fuse {
				// Build already happened inside the fused scatter.
				if table = tabsR[p]; table == nil {
					continue
				}
				tw.AddTuples(table.Size())
			} else {
				nR := 0
				for t := range partsR {
					nR += len(partsR[t][p])
				}
				if nR == 0 {
					continue
				}
				tw.AddTuples(int64(nR))
				table = ctx.Pool.Table(nR, bits)
				if ctx.Tracer != nil {
					table.SetTracer(ctx.Tracer, uint64(p)<<22|1<<40)
				}
				for t := range partsR {
					table.InsertBatchHashed(partsR[t][p], hashR[t][p])
				}
			}
			ctx.M.MemAdd(table.MemBytes())

			ctx.Begin(tid, metrics.PhaseProbe)
			k.Refresh()
			for t := range partsS {
				probes, hashes := partsS[t][p], hashS[t][p]
				tw.AddTuples(int64(len(probes)))
				for len(probes) > 0 {
					n := min(matchBatch, len(probes))
					k.Refresh()
					hits = table.ProbeRuns(probes[:n], hashes[:n], hits[:0])
					k.Hits(hits, true)
					probes, hashes = probes[n:], hashes[n:]
				}
			}
			ctx.M.MemAdd(-table.MemBytes()) // partition table released
			ctx.Pool.PutTable(table)
		}
		k.Close()
		ctx.Pool.PutHits(hits)
		ctx.EndPhase(tid)
	})
	// The partition slices alias the partitioners' buffers; every worker
	// is done with them now.
	for _, pr := range parters {
		ctx.Pool.PutPartitioner(pr)
	}
	ctx.M.MemSampleNow(ctx.NowMs())
	return nil
}
