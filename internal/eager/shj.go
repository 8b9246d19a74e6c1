package eager

import (
	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/metrics"
	"repro/internal/tuple"
)

// SHJ is the Symmetric Hash Join combined with a stream distribution
// scheme. Each worker maintains two hash tables, one per input stream;
// receiving a tuple from R (or S) it inserts it into the R (S) table and
// immediately probes the opposite table (Figure 1a). The JM scheme
// replicates R and round-robins S (content-insensitive); the JB scheme
// routes keys to core groups (content-sensitive).
//
// Each pulled batch runs through the batched kernel APIs (InsertBatch /
// ProbeRuns): one call per batch instead of one per tuple, and no
// per-probe emit closure. Both per-worker tables and all batch buffers
// come from the window pool when one is attached, so steady-state windows
// join with zero allocations (PERFORMANCE.md).
type SHJ struct {
	// JB selects the join-biclique scheme; false selects join-matrix.
	JB bool
}

// Name implements core.Algorithm.
func (a SHJ) Name() string {
	if a.JB {
		return "SHJ_JB"
	}
	return "SHJ_JM"
}

// Run implements core.Algorithm: between two pulls a worker runs the
// interleaved build/probe of Figure 1a over the batch it pulled.
func (a SHJ) Run(ctx *core.ExecContext) error {
	bsz := ctx.Knobs.BatchSize
	core.Parallel(ctx.Threads, func(tid int) {
		w := newWorker(ctx, tid, a.JB, 1<<46)

		rtab := ctx.Pool.Table(len(ctx.R)/w.dist.estOwnersR()+16, 0)
		stab := ctx.Pool.Table(len(ctx.S)/ctx.Threads+16, 0)
		if ctx.Tracer != nil {
			rtab.SetTracer(ctx.Tracer, uint64(tid)<<40|1<<48)
			stab.SetTracer(ctx.Tracer, uint64(tid)<<40|1<<49)
		}
		memLast := rtab.MemBytes() + stab.MemBytes()
		ctx.M.MemAdd(memLast)

		rbuf := ctx.Pool.Tuples(bsz)
		sbuf := ctx.Pool.Tuples(bsz)
		hits := ctx.Pool.Hits(bsz)
		for rounds := 1; w.next(); rounds++ {
			// Pull a batch from R: insert into the R table, probe the
			// S table (interleaved build and probe).
			w.begin(metrics.PhasePartition)
			rbuf = w.pull(&w.r, rbuf[:0])
			w.end(len(rbuf))
			hits = w.insertProbe(rbuf, rtab, stab, hits, false)

			// Then alternate: pull a batch from S.
			w.begin(metrics.PhasePartition)
			sbuf = w.pull(&w.s, sbuf[:0])
			w.end(len(sbuf))
			hits = w.insertProbe(sbuf, stab, rtab, hits, true)

			w.starved(len(rbuf) + len(sbuf))

			if rounds&0xff == 0 || w.r.done() && w.s.done() {
				mem := rtab.MemBytes() + stab.MemBytes() + w.dist.statusBytes()
				ctx.M.MemAdd(mem - memLast)
				memLast = mem
				if tid == 0 {
					ctx.M.MemSampleNow(ctx.NowMs())
				}
			}
		}
		ctx.Pool.PutTuples(rbuf)
		ctx.Pool.PutTuples(sbuf)
		ctx.Pool.PutHits(hits)
		ctx.Pool.PutTable(rtab)
		ctx.Pool.PutTable(stab)
		w.close()
	})
	ctx.M.MemSampleNow(ctx.NowMs())
	return nil
}

// insertProbe inserts a pulled batch into its own stream's table, then
// probes the opposite stream's with it; probedR says the probed table
// holds R. hits is the reused hit buffer, handed back.
func (w *worker) insertProbe(batch []tuple.Tuple, own, probed *hashtable.Table, hits []hashtable.Hit, probedR bool) []hashtable.Hit {
	if len(batch) == 0 {
		return hits
	}
	w.begin(metrics.PhaseBuildSort)
	own.InsertBatch(batch)
	w.end(len(batch))
	w.begin(metrics.PhaseProbe)
	hits = probed.ProbeRuns(batch, nil, hits[:0])
	w.sink.Hits(hits, probedR)
	w.end(len(batch))
	return hits
}
