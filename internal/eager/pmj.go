package eager

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/sortmerge"
	"repro/internal/tuple"
)

// PMJ is the Progressive Merge Join combined with a stream distribution
// scheme. Following the paper's modernized variant of Dittrich et al.'s
// algorithm, each worker accumulates δ of its expected input from both
// streams, sorts the pair of subsets into runs, immediately joins the run
// pair with a sequential scan, and keeps runs in main memory. When the
// streams are exhausted, the merge phase revisits the stored runs to
// produce the remaining matches among different run pairs (Figure 1b).
//
// With Knobs.SpillDir set, sealed runs are written to disk and re-read in
// the merge phase — the original PMJ's behaviour before the paper moved
// runs to main memory for modern hardware.
//
// The accumulation buffers (which become the runs), the sort scratch and
// the spill reload buffers come from the window pool when one is attached
// and go back to it when the worker finishes — a spilled run's as soon as
// it is on disk — so steady-state windows allocate none of them.
type PMJ struct {
	// JB selects the join-biclique scheme; false selects join-matrix.
	JB bool
}

// Name implements core.Algorithm.
func (a PMJ) Name() string {
	if a.JB {
		return "PMJ_JB"
	}
	return "PMJ_JM"
}

// Approach implements core.Algorithm.
func (PMJ) Approach() core.Approach { return core.Eager }

// Method implements core.Algorithm.
func (PMJ) Method() core.JoinMethod { return core.SortJoin }

// run holds one sealed pair of sorted subsets, in memory or spilled.
type run struct {
	r, s tuple.Relation
	// A spilled run keeps its file path and subset sizes instead of r, s.
	path   string
	nr, ns int
}

// spill writes the run pair to a temp file and hands the in-memory copies
// back to the pool, as the original disk-based PMJ frees its memory. On
// failure the run stays in memory.
func (ru *run) spill(dir string, p *pool.Pool) error {
	f, err := os.CreateTemp(dir, "pmjrun-*.bin")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err = tuple.WriteBinary(bw, ru.r); err == nil {
		err = tuple.WriteBinary(bw, ru.s)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	ru.path, ru.nr, ru.ns = f.Name(), len(ru.r), len(ru.s)
	p.PutTuples(ru.r)
	p.PutTuples(ru.s)
	ru.r, ru.s = nil, nil
	return nil
}

// spillReader re-reads spilled runs in the merge phase into two buffers a
// worker takes from the pool once, sized for its largest run.
type spillReader struct {
	br         *bufio.Reader
	bufR, bufS tuple.Relation
}

// newSpillReader sizes the reload buffers for runs; without a spilled run
// it takes nothing from the pool.
func newSpillReader(runs []run, p *pool.Pool) spillReader {
	maxR, maxS := 0, 0
	for i := range runs {
		maxR, maxS = max(maxR, runs[i].nr), max(maxS, runs[i].ns)
	}
	if maxR+maxS == 0 {
		return spillReader{}
	}
	return spillReader{br: bufio.NewReader(nil), bufR: p.Tuples(maxR), bufS: p.Tuples(maxS)}
}

func (sr *spillReader) release(p *pool.Pool) {
	p.PutTuples(sr.bufR)
	p.PutTuples(sr.bufS)
}

// loadR returns the run's R subset: itself for an in-memory run, re-read
// into the reader's R buffer for a spilled one, valid until the next loadR.
func (sr *spillReader) loadR(ru *run) (tuple.Relation, error) {
	if ru.path == "" {
		return ru.r, nil
	}
	return sr.read(ru.path, 0, sr.bufR)
}

// loadS is loadR for the S subset, which follows R's count-prefixed
// encoding in the run file.
func (sr *spillReader) loadS(ru *run) (tuple.Relation, error) {
	if ru.path == "" {
		return ru.s, nil
	}
	return sr.read(ru.path, 8+int64(ru.nr)*tuple.BinarySize, sr.bufS)
}

func (sr *spillReader) read(path string, offset int64, dst tuple.Relation) (tuple.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return nil, err
	}
	sr.br.Reset(f)
	return tuple.ReadBinaryInto(sr.br, dst)
}

// Run implements core.Algorithm. The worker loop covers the sort-seal
// inner loop and the run-pair merge of Figure 1b.
//
//iawj:hotpath
func (a PMJ) Run(ctx *core.ExecContext) error {
	if g := ctx.Knobs.GroupSize; g > ctx.Threads {
		return fmt.Errorf("eager: group size %d exceeds %d threads", g, ctx.Threads) //lint:allow hotpathalloc entry validation, not per-tuple
	}
	atRest := ctx.Clock.AtRest()
	bsz := batchSize(ctx)
	spillDir := ctx.Knobs.SpillDir

	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	parallel(ctx.Threads, func(tid int) {
		pt := newPhaseTimer(ctx, tid)
		dist := makeDist(a.JB, ctx, tid)
		sink := core.NewSink(ctx, tid)

		// δ controls how many tuples accumulate before each sort step,
		// as a fraction of this worker's expected input (Section 3.2.1).
		expected := len(ctx.R)/dist.estOwnersR(ctx) + len(ctx.S)/ctx.Threads
		step := int(ctx.Knobs.SortStepFrac * float64(expected))
		if step < 2*bsz {
			step = 2 * bsz
		}

		// Every run is sealed from a pair of buffers of this capacity: a
		// seal happens once both hold step tuples between them, and the
		// pull before it adds at most a batch to each.
		runCap := step + 2*bsz
		// A run is sealed per step tuples of the expected input, plus the
		// final partial one: sized once, not grown run by run.
		runs := make([]run, 0, expected/step+2)
		defer func() {
			// Shadow the captured slice: indexing the closure variable
			// directly re-checks bounds per run (LINTING.md §BCE).
			rs := runs
			for i := range rs {
				if rs[i].path != "" {
					os.Remove(rs[i].path)
				}
				ctx.Pool.PutTuples(rs[i].r)
				ctx.Pool.PutTuples(rs[i].s)
			}
		}()
		curR, curS := ctx.Pool.Tuples(runCap), ctx.Pool.Tuples(runCap)
		scratch := ctx.Pool.Tuples(runCap)
		rcur := &cursor{rel: ctx.R, tracer: ctx.Tracer, base: 1 << 47}
		scur := &cursor{rel: ctx.S, tracer: ctx.Tracer, base: 1<<47 | 1<<45}

		// Hoisted loop state and closures: the accumulate loop and the
		// merge-phase scan reuse these instead of constructing fresh
		// closures every iteration.
		var gate int64
		var rWaiting, sWaiting bool
		nR, nS := 0, 0
		ownsR, ownsS := dist.ownsR, dist.ownsS
		rect := sink.Rect
		pull := func() int64 {
			before := len(curR)
			curR, rWaiting = rcur.batch(curR, bsz, gate, atRest, ownsR)
			nR = len(curR) - before
			before = len(curS)
			curS, sWaiting = scur.batch(curS, bsz, gate, atRest, ownsS)
			nS = len(curS) - before
			return int64(nR + nS)
		}
		stallFn := func() { time.Sleep(stall) }

		seal := func() {
			if len(curR) == 0 && len(curS) == 0 {
				return
			}
			// Sort the accumulated subsets into a run pair.
			pt.timeCount(metrics.PhaseBuildSort, func() int64 {
				sortmerge.SortByKeyScratch(curR, scratch, ctx.Knobs.SIMD, ctx.Tracer, uint64(tid)<<40|uint64(len(runs))<<24)
				sortmerge.SortByKeyScratch(curS, scratch, ctx.Knobs.SIMD, ctx.Tracer, uint64(tid)<<40|uint64(len(runs))<<24|1<<23)
				return int64(len(curR) + len(curS))
			})
			// Join the fresh run pair immediately: early results.
			pt.timeCount(metrics.PhaseProbe, func() int64 {
				sink.Refresh()
				sortmerge.MergeJoinRuns(curR, curS, rect, ctx.Tracer, 0, 0)
				return int64(len(curR) + len(curS))
			})
			ru := run{r: curR, s: curS}
			if spillDir != "" {
				pt.time(metrics.PhaseOther, func() {
					if err := ru.spill(spillDir, ctx.Pool); err != nil {
						fail(fmt.Errorf("eager: pmj spill: %w", err)) //lint:allow hotpathalloc error path, not per-tuple
					}
				})
			} else {
				ctx.M.MemAdd(int64(len(curR)+len(curS)) * 16)
			}
			runs = append(runs, ru)
			curR, curS = nil, nil
			if !rcur.done() || !scur.done() {
				curR, curS = ctx.Pool.Tuples(runCap), ctx.Pool.Tuples(runCap)
			}
			if tid == 0 {
				ctx.M.MemSampleNow(ctx.NowMs())
			}
		}

		for !rcur.done() || !scur.done() {
			gate = ctx.GateMs()
			// Every round, as SHJ does: a sealed run's results leave within
			// a round, and a worker still accumulating delivers what the
			// others have parked.
			sink.Refresh()
			rWaiting, sWaiting = false, false
			pt.timeCount(metrics.PhasePartition, pull)
			if len(curR)+len(curS) >= step {
				//lint:allow hotpathalloc seal runs once per sealed run, not per tuple
				seal()
			}
			if nR == 0 && nS == 0 && (rWaiting || sWaiting) {
				pt.time(metrics.PhaseWait, stallFn)
			}
		}
		seal() // the final partial run
		ctx.Pool.PutTuples(curR)
		ctx.Pool.PutTuples(curS)
		ctx.Pool.PutTuples(scratch)

		// Merge phase: revisit stored runs and join the remaining pairs
		// of subsets (run i's R against run j's S for i != j; the i == j
		// pairs were joined when sealed). Spilled runs are re-read here,
		// paying the original PMJ's disk revisit cost.
		pt.time(metrics.PhaseMerge, func() {
			sink.Refresh()
			// Shadow the captured slice: indexing the closure variable
			// directly re-checks bounds per run (LINTING.md §BCE).
			rs := runs
			sr := newSpillReader(rs, ctx.Pool)
			defer sr.release(ctx.Pool)
			for i := range rs {
				ri, err := sr.loadR(&rs[i])
				if err != nil {
					fail(fmt.Errorf("eager: pmj reload: %w", err)) //lint:allow hotpathalloc error path, not per-tuple
					return
				}
				for j := range rs {
					if i == j {
						continue
					}
					sj, err := sr.loadS(&rs[j])
					if err != nil {
						fail(fmt.Errorf("eager: pmj reload: %w", err)) //lint:allow hotpathalloc error path, not per-tuple
						return
					}
					sortmerge.MergeJoinRuns(ri, sj, rect, ctx.Tracer, 0, 0)
					sink.Refresh()
				}
			}
		})
		sink.Close()
		ctx.M.MemAdd(dist.statusBytes())
		dist.release(ctx.Pool)
		ctx.EndPhase(tid)
	})
	ctx.M.MemSampleNow(ctx.NowMs())
	return firstErr
}
