package lazy

import (
	"repro/internal/core"
	"repro/internal/metrics"
)

// NPJ is the No-Partitioning Join: a parallel canonical hash join. All
// threads populate one shared hash table with their equisized portions of
// R, synchronize on a barrier, then concurrently probe with their portions
// of S. The shared table's per-bucket latches exhibit the access conflicts
// the paper measures under high key duplication, and its footprint beyond
// L3 drives NPJ's memory-bound profile (Section 5.6).
//
// Build and probe run through the batched kernel APIs (InsertBatch /
// ProbeRuns): one call per worker chunk instead of one per tuple, and a
// probe's matches handed to the sink as one run — the stored tuples of its
// key — not one at a time. The shared table and the per-worker hit
// buffers come from the run's pool (core.RunConfig.Pool) and go back when
// the run ends, so steady-state windows build and probe with zero
// allocations (PERFORMANCE.md).
type NPJ struct{}

// Name implements core.Algorithm.
func (NPJ) Name() string { return "NPJ" }

// Run implements core.Algorithm. The per-tuple work is in the table
// kernels and the sink's run walk; this is per-chunk orchestration.
func (NPJ) Run(ctx *core.ExecContext) error {
	table := ctx.Shared(len(ctx.R))
	if ctx.Tracer != nil {
		table.SetTracer(ctx.Tracer, 1<<42)
	}
	baseMem := table.MemBytes()
	ctx.M.MemAdd(baseMem)
	ctx.Parallel(func(tid int) {
		tm := ctx.M.T(tid)
		ctx.WaitWindow(tid)

		ctx.Begin(tid, metrics.PhaseBuildSort)
		lo, hi := core.Chunk(len(ctx.R), ctx.Threads, tid)
		tm.AddTuples(int64(hi - lo))
		table.InsertBatch(ctx.R[lo:hi])
		ctx.Begin(tid, metrics.PhaseOther)
		ctx.Barrier() // build/probe barrier as in the original NPJ

		ctx.Begin(tid, metrics.PhaseProbe)
		k := core.NewSink(ctx, tid)
		lo, hi = core.Chunk(len(ctx.S), ctx.Threads, tid)
		tm.AddTuples(int64(hi - lo))
		hits := ctx.Hits(tid, matchBatch)
		for rest := ctx.S[lo:hi]; len(rest) > 0; {
			blk := rest[:min(matchBatch, len(rest))]
			rest = rest[len(blk):]
			k.Refresh()
			hits = table.ProbeRuns(blk, hits[:0])
			k.Hits(hits, true)
		}
		k.Close()
		ctx.EndPhase(tid)
	})
	ctx.M.MemAdd(table.MemBytes() - baseMem) // overflow buckets and the arena, grown at build
	ctx.M.MemSampleNow(ctx.NowMs())
	return nil
}
