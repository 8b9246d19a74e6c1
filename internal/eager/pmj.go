package eager

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

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

// pmjWorker is one worker's PMJ state on top of the pulling half: the
// pair of subsets being accumulated and the runs sealed from them.
type pmjWorker struct {
	worker
	// step is how many tuples accumulate before a sort step; every run is
	// sealed from a pair of buffers of capacity runCap.
	step, runCap        int
	runs                []run
	curR, curS, scratch tuple.Relation
	rect                func(rRun, sRun []tuple.Tuple) // the sink's Rect
	// err is the first spill or reload failure. The worker carries on past
	// it, so every buffer and file it holds is still released.
	err error
}

// Run implements core.Algorithm: between two pulls a worker accumulates,
// and seals a run once a step's worth is in (the sort-seal inner loop of
// Figure 1b); when the streams are exhausted it merges the run pairs.
func (a PMJ) Run(ctx *core.ExecContext) error {
	errs := make([]error, ctx.Threads)
	core.Parallel(ctx.Threads, func(tid int) { errs[tid] = a.work(ctx, tid) })
	ctx.M.MemSampleNow(ctx.NowMs())
	// Every worker has run to its end and released what it held.
	return errors.Join(errs...)
}

// work is worker tid's whole join; it returns the worker's first failure.
func (a PMJ) work(ctx *core.ExecContext, tid int) error {
	p := pmjWorker{worker: newWorker(ctx, tid, a.JB, 1<<47)}
	bsz := ctx.Knobs.BatchSize

	// δ controls how many tuples accumulate before each sort step, as a
	// fraction of this worker's expected input (Section 3.2.1).
	expected := len(ctx.R)/p.dist.estOwnersR() + len(ctx.S)/ctx.Threads
	p.step = max(int(ctx.Knobs.SortStepFrac*float64(expected)), 2*bsz)
	// A seal happens once both buffers hold step tuples between them, and
	// the pull before it adds at most a batch to each.
	p.runCap = p.step + 2*bsz
	// A run is sealed per step tuples of the expected input, plus the
	// final partial one: sized once, not grown run by run.
	p.runs = make([]run, 0, expected/p.step+2)
	p.curR, p.curS = ctx.Pool.Tuples(p.runCap), ctx.Pool.Tuples(p.runCap)
	p.scratch = ctx.Pool.Tuples(p.runCap)
	p.rect = p.sink.Rect

	for p.next() {
		before := len(p.curR) + len(p.curS)
		p.begin(metrics.PhasePartition)
		p.curR = p.pull(&p.r, p.curR)
		p.curS = p.pull(&p.s, p.curS)
		pulled := len(p.curR) + len(p.curS) - before
		p.end(pulled)
		if before+pulled >= p.step {
			p.seal()
		}
		p.starved(pulled)
	}
	p.seal() // the final partial run
	ctx.Pool.PutTuples(p.curR)
	ctx.Pool.PutTuples(p.curS)
	ctx.Pool.PutTuples(p.scratch)

	p.begin(metrics.PhaseMerge)
	if err := p.merge(); err != nil && p.err == nil {
		p.err = fmt.Errorf("eager: pmj reload: %w", err)
	}
	p.end(0)

	for i := range p.runs {
		if p.runs[i].path != "" {
			os.Remove(p.runs[i].path)
		}
		ctx.Pool.PutTuples(p.runs[i].r)
		ctx.Pool.PutTuples(p.runs[i].s)
	}
	ctx.M.MemAdd(p.dist.statusBytes())
	p.close()
	return p.err
}

// seal sorts the accumulated subsets into a run pair, joins the pair
// immediately — early results — and stores it, in memory or spilled.
func (p *pmjWorker) seal() {
	n := len(p.curR) + len(p.curS)
	if n == 0 {
		return
	}
	ctx := p.ctx
	base := uint64(p.tid)<<40 | uint64(len(p.runs))<<24
	p.begin(metrics.PhaseBuildSort)
	sortmerge.SortByKeyScratch(p.curR, p.scratch, ctx.Knobs.SIMD, ctx.Tracer, base)
	sortmerge.SortByKeyScratch(p.curS, p.scratch, ctx.Knobs.SIMD, ctx.Tracer, base|1<<23)
	p.end(n)
	p.begin(metrics.PhaseProbe)
	p.sink.Refresh()
	sortmerge.MergeJoinRuns(p.curR, p.curS, p.rect, ctx.Tracer, 0, 0)
	p.end(n)

	ru := run{r: p.curR, s: p.curS}
	if dir := ctx.Knobs.SpillDir; dir != "" {
		p.begin(metrics.PhaseOther)
		if err := ru.spill(dir, ctx.Pool); err != nil && p.err == nil {
			p.err = fmt.Errorf("eager: pmj spill: %w", err)
		}
		p.end(0)
	} else {
		ctx.M.MemAdd(int64(n) * 16)
	}
	p.runs = append(p.runs, ru)
	p.curR, p.curS = nil, nil
	if !p.r.done() || !p.s.done() {
		p.curR, p.curS = ctx.Pool.Tuples(p.runCap), ctx.Pool.Tuples(p.runCap)
	}
	if p.tid == 0 {
		ctx.M.MemSampleNow(ctx.NowMs())
	}
}

// merge revisits the stored runs and joins the remaining pairs of subsets
// (run i's R against run j's S for i != j; the i == j pairs were joined
// when sealed). Spilled runs are re-read here, paying the original PMJ's
// disk revisit cost.
func (p *pmjWorker) merge() error {
	p.sink.Refresh()
	sr := newSpillReader(p.runs, p.ctx.Pool)
	defer sr.release(p.ctx.Pool)
	for i := range p.runs {
		ri, err := sr.loadR(&p.runs[i])
		if err != nil {
			return err
		}
		for j := range p.runs {
			if i == j {
				continue
			}
			sj, err := sr.loadS(&p.runs[j])
			if err != nil {
				return err
			}
			sortmerge.MergeJoinRuns(ri, sj, p.rect, p.ctx.Tracer, 0, 0)
			p.sink.Refresh()
		}
	}
	return nil
}
