// Package core is the heart of the study's benchmark framework: the
// execution context shared by all eight intra-window-join algorithms, the
// runner that drives a join over a simulated window, and the decision tree
// distilled from the evaluation (Figure 4).
//
// The paper's primary contribution is not a new join but the framework
// that puts lazy relational joins and eager stream joins on equal footing:
// one tuple model, one arrival simulation, one metrics harness. This
// package provides exactly that.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
	"unsafe"

	"repro/internal/cachesim"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// Knobs carries the per-algorithm tuning parameters studied in Section 5.5.
type Knobs struct {
	// RadixBits is PRJ's #r (Figure 18), at most maxRadixBits. Zero selects
	// the default (10, the experimentally determined sweet spot on the
	// paper's machine).
	RadixBits int
	// SortStepFrac is PMJ's δ as a fraction of the expected input per
	// stream (Figure 15). Zero selects the default 0.2 (20%).
	SortStepFrac float64
	// GroupSize is the JB scheme's g (Figure 16), at most Threads. Zero
	// selects 1 (strict hash partitioning); g == Threads degenerates to JM.
	GroupSize int
	// ScalarSort swaps the radix sort of MWAY, MPASS and PMJ — the stand-in
	// for the paper's AVX sort — for the comparison merge sort, Figure 21's
	// foil.
	ScalarSort bool
	// BatchSize bounds how many tuples an eager worker pulls from one
	// stream before re-checking the other; default 64.
	BatchSize int
	// SpillDir, when non-empty, makes PMJ write sealed runs to disk in
	// this directory and re-read them during the merge phase — the
	// original disk-based PMJ behaviour.
	SpillDir string
}

func (k *Knobs) defaults() {
	if k.RadixBits <= 0 {
		k.RadixBits = 10
	}
	if k.SortStepFrac <= 0 {
		k.SortStepFrac = 0.2
	}
	if k.GroupSize <= 0 {
		k.GroupSize = 1
	}
	if k.BatchSize <= 0 {
		k.BatchSize = 64
	}
}

// maxRadixBits bounds Knobs.RadixBits: Figure 18 sweeps #r to 18, and a
// fanout of 2^#r is allocated per worker whatever the input size.
const maxRadixBits = 20

// validate rejects, after defaults, the knob values no run of threads
// workers can honour.
func (k *Knobs) validate(threads int) error {
	if k.RadixBits > maxRadixBits {
		return fmt.Errorf("radix bits %d exceed the maximum %d", k.RadixBits, maxRadixBits)
	}
	if k.GroupSize > threads {
		return fmt.Errorf("group size %d exceeds %d threads", k.GroupSize, threads)
	}
	return nil
}

// ExecContext is everything an algorithm needs for one run.
type ExecContext struct {
	R, S     tuple.Relation
	WindowMs int64
	// BaseTS is the window start the tuple timestamps count from: a tuple
	// arrives at simulated time TS-BaseTS. The windowed driver passes the
	// caller's stream slices as they are and the window start here;
	// everything that reads a timestamp (Avail, WaitWindow, Sink, the
	// eager arrival gate) applies the offset, so latencies and emitted
	// results stay window-relative.
	BaseTS  int64
	Threads int
	Clock   clock.Source
	M       *metrics.Collector
	Knobs   Knobs
	// Tracer, when non-nil, feeds the cache simulator; profile runs are
	// single-threaded so the trace is deterministic.
	Tracer cachesim.Tracer
	// Out takes the run's materialized results to the caller's consumer;
	// nil counts only (the paper measures the join process, not downstream
	// consumption). Workers reach it through their Sink.
	Out *Outbox
	// pool recycles per-window kernel state (hash tables, partitioner
	// scratch, match buffers) across windows; Run always sets it (see
	// internal/pool and PERFORMANCE.md). Workers take from it through the
	// context (Tuples, Table, …), which records the take in held.
	pool *pool.Pool

	// What the run's frame keeps for the next call: the workers' sinks
	// (NewSink), timers (Sleep) and pool takes (held), the algorithms'
	// run state (RunState), and Parallel's wait group and barrier.
	sinks   []Sink
	timers  []*time.Timer
	held    []held
	states  []any
	workers sync.WaitGroup
	barrier sync.WaitGroup
}

// NowMs returns the current simulated time.
func (ctx *ExecContext) NowMs() int64 { return ctx.Clock.NowMs() }

// Begin switches worker tid into phase p: its ThreadMetrics books the
// stretch this closes (and, in a traced run, hands it to the worker's span
// ring), and a phase-aware cache tracer attributes what follows to p, so
// profile runs split cache statistics by phase (Figure 8).
func (ctx *ExecContext) Begin(tid int, p metrics.Phase) {
	ctx.M.T(tid).Begin(p)
	if ctx.Tracer != nil {
		if ps, ok := ctx.Tracer.(cachesim.PhaseSetter); ok {
			ps.SetPhase(int(p))
		}
	}
}

// EndPhase closes worker tid's current phase; workers call it once when
// they finish.
func (ctx *ExecContext) EndPhase(tid int) { ctx.M.T(tid).End() }

// Avail reports whether a tuple with timestamp ts has arrived.
func (ctx *ExecContext) Avail(ts int64) bool { return ctx.Clock.Avail(ts - ctx.BaseTS) }

// GateMs is the arrival gate of this instant: a tuple has arrived when its
// timestamp is <= GateMs. Eager pull loops sample it once per round and
// compare raw timestamps against it, with no per-tuple subtraction.
func (ctx *ExecContext) GateMs() int64 { return ctx.Clock.NowMs() + ctx.BaseTS }

// WaitWindow blocks until the window has fully arrived, crediting the
// elapsed time to the wait phase of thread tid. Lazy algorithms call this
// before processing; for data at rest it returns immediately.
func (ctx *ExecContext) WaitWindow(tid int) {
	if ctx.Clock.AtRest() {
		return
	}
	last := max(ctx.R.MaxTS(), ctx.S.MaxTS()) - ctx.BaseTS
	if ctx.WindowMs > last {
		last = ctx.WindowMs
	}
	ctx.Begin(tid, metrics.PhaseWait)
	for !ctx.Clock.Avail(last) {
		ctx.Sleep(tid, 50*time.Microsecond)
	}
	ctx.EndPhase(tid)
}

// Sleep pauses worker tid for d. A goroutine's first time.Sleep
// allocates its runtime timer, and Parallel starts its workers afresh
// every call, so a context from Run keeps a timer per worker instead.
func (ctx *ExecContext) Sleep(tid int, d time.Duration) {
	if tid >= len(ctx.timers) {
		time.Sleep(d)
		return
	}
	t := ctx.timers[tid]
	if t == nil {
		t = time.NewTimer(d)
		ctx.timers[tid] = t
	} else {
		t.Reset(d) // t has fired and been drained
	}
	<-t.C
}

// Chunk returns the [lo, hi) bounds of thread tid's equisized portion of n
// items, the workload division used by the lazy algorithms.
//
//iawj:inline
func Chunk(n, threads, tid int) (lo, hi int) {
	lo = tid * n / threads
	hi = (tid + 1) * n / threads
	return lo, hi
}

// Parallel runs fn on the run's ctx.Threads workers, tid 0 to Threads-1
// — worker 0 on the calling goroutine, every other on one of its own —
// and waits for all of them. It arms Barrier for them.
func (ctx *ExecContext) Parallel(fn func(tid int)) {
	threads := max(ctx.Threads, 1)
	ctx.barrier = sync.WaitGroup{}
	ctx.barrier.Add(threads)
	ctx.workers.Add(threads - 1)
	for tid := 1; tid < threads; tid++ {
		go ctx.worker(fn, tid)
	}
	fn(0)
	ctx.workers.Wait()
}

// worker runs worker tid of a Parallel call.
func (ctx *ExecContext) worker(fn func(tid int), tid int) {
	defer ctx.workers.Done()
	fn(tid)
}

// Barrier returns once every worker of the current Parallel call has
// called it — the build/probe barrier of the lazy joins. A worker calls
// it at most once per Parallel call.
func (ctx *ExecContext) Barrier() {
	ctx.barrier.Done()
	ctx.barrier.Wait()
}

// RunState returns the algorithm state of type T kept with ctx: the *T
// an earlier call of the same algorithm left when ctx comes from a
// pooled frame, else a new zero T. It holds the per-call slices the
// workers share, not pooled state (Run gives that back). Call it before
// the workers start; the algorithm resets whatever of it it reads, and
// leaves no caller or pool memory referenced when it returns.
func RunState[T any](ctx *ExecContext) *T {
	for _, st := range ctx.states {
		if t, ok := st.(*T); ok {
			return t
		}
	}
	t := new(T)
	ctx.states = append(ctx.states, t)
	return t
}

// frame is what one call of Run needs beyond the pool's kernel state:
// the ExecContext its workers share, its metrics collector and clock,
// held by value, the outbox of a call that materializes alone, and the
// channel the algorithm's goroutine reports on while Run delivers. The
// pool keeps frames between calls, so a warm call allocates none of it.
type frame struct {
	ctx   ExecContext
	m     metrics.Collector
	clock clock.Scaled
	out   Outbox
	alg   Algorithm
	done  chan error
}

// takeFrame takes a frame from p, or makes one.
func takeFrame(p *pool.Pool) *frame {
	if f, ok := p.Frame().(*frame); ok {
		return f
	}
	return &frame{done: make(chan error, 1)}
}

// MemBytes is what the frame holds: itself, its collector's worker slots
// and its workers' sinks.
func (f *frame) MemBytes() int64 {
	return int64(unsafe.Sizeof(*f)) + f.m.MemBytes() + int64(cap(f.ctx.sinks))*int64(unsafe.Sizeof(Sink{}))
}

// run runs the frame's algorithm and reports its error on done.
func (f *frame) run() { f.done <- f.alg.Run(&f.ctx) }

// release drops the call's references — inputs, clock, consumer,
// tracer and trace rings — and files the frame in p for the next call,
// which resets the collector.
func (f *frame) release(p *pool.Pool) {
	for tid := range f.m.Threads() {
		f.m.T(tid).Trace(nil, 0)
	}
	clear(f.ctx.sinks)
	f.ctx = ExecContext{sinks: f.ctx.sinks, timers: f.ctx.timers, held: f.ctx.held, states: f.ctx.states}
	f.out.emit, f.alg = nil, nil
	p.PutFrame(f)
}

// Algorithm is one of the eight studied intra-window-join algorithms
// (internal/joins is the table of them).
type Algorithm interface {
	// Name is the paper's identifier, e.g. "NPJ" or "SHJ_JM".
	Name() string
	// Run executes the join to completion.
	Run(ctx *ExecContext) error
}

// RunConfig configures one benchmark run.
type RunConfig struct {
	Threads int
	// NsPerSimMs scales simulated time: real nanoseconds per simulated
	// millisecond. Zero keeps the default compression (50µs per
	// simulated ms); use 1e6 for real time.
	NsPerSimMs float64
	// AtRest disables arrival simulation: all tuples are instantly
	// available (static datasets).
	AtRest bool
	Knobs  Knobs
	Tracer cachesim.Tracer
	// Trace records per-worker phase spans into the given recorder:
	// StartRun names the run and attaches its rings to the run's workers.
	Trace *trace.Recorder
	// Emit receives the materialized results, a batch of them at a time
	// and never from two goroutines at once (Outbox); nil counts only.
	// Everything is delivered when Run returns, and a panic in Emit ends
	// the run with an error.
	Emit func(tuple.JoinResult)
	// Out, when non-nil, is the outbox of a call that makes several runs
	// for one consumer (the windows of JoinWindowed*): the run delivers
	// through it instead of one of its own, and Emit is ignored.
	Out *Outbox
	// Pool recycles per-window kernel state across runs; nil gives the
	// run a fresh pool of its own.
	Pool *pool.Pool
	// BaseTS is the timestamp the inputs count from (ExecContext.BaseTS);
	// zero for inputs that start at their window's opening.
	BaseTS int64
	// WrapClock, when non-nil, wraps the run's time source before any
	// worker sees it. The conformance harness injects clock.Perturb here
	// to vary arrival schedules and goroutine interleavings without
	// touching algorithm code (see internal/oracle and TESTING.md).
	WrapClock func(clock.Source) clock.Source
}

// DefaultNsPerSimMs compresses one simulated millisecond into 50µs of real
// time so that a one-second window replays in 50ms of wall time.
const DefaultNsPerSimMs = 50e3

// ErrNoAlgorithm is returned by Run when alg is nil.
var ErrNoAlgorithm = errors.New("core: nil algorithm")

// ErrUnsortedInput is returned by Run for streaming inputs that are not
// time ordered: arrival gating walks each stream once in timestamp order,
// so an unsorted stream would silently hold back every tuple behind a
// late-timestamped one.
var ErrUnsortedInput = errors.New("core: streaming input is not time ordered")

// Run executes alg over one window of r and s and returns the merged
// metrics.
func Run(alg Algorithm, r, s tuple.Relation, windowMs int64, cfg RunConfig) (metrics.Result, error) {
	if alg == nil {
		return metrics.Result{}, ErrNoAlgorithm
	}
	if !cfg.AtRest && (!r.SortedByTS() || !s.SortedByTS()) {
		return metrics.Result{}, ErrUnsortedInput
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	knobs := cfg.Knobs
	knobs.defaults()
	if err := knobs.validate(threads); err != nil {
		return metrics.Result{}, fmt.Errorf("core: %s: %w", alg.Name(), err)
	}
	ns := cfg.NsPerSimMs
	if ns <= 0 {
		ns = DefaultNsPerSimMs
	}
	if cfg.Pool == nil {
		cfg.Pool = pool.New()
	}
	poolBefore := cfg.Pool.Stats()
	f := takeFrame(cfg.Pool)
	defer f.release(cfg.Pool)
	// Static data ticks at the same compressed rate so latency and
	// throughput units stay comparable with streaming runs, and short
	// static joins still resolve to more than a tick or two.
	f.clock.Restart(ns, cfg.AtRest)
	var src clock.Source = &f.clock
	if cfg.WrapClock != nil {
		src = cfg.WrapClock(src)
	}
	f.m.Reset(threads)
	ctx := &f.ctx
	sinks := ctx.sinks
	if cap(sinks) < threads {
		sinks = make([]Sink, threads)
	}
	*ctx = ExecContext{
		R:        r,
		S:        s,
		WindowMs: windowMs,
		BaseTS:   cfg.BaseTS,
		Threads:  threads,
		Clock:    src,
		M:        &f.m,
		Knobs:    knobs,
		Tracer:   cfg.Tracer,
		Out:      cfg.Out,
		pool:     cfg.Pool,
		sinks:    sinks[:threads],
		timers:   slices.Grow(ctx.timers[:0], threads)[:threads],
		held:     slices.Grow(ctx.held[:0], threads)[:threads],
		states:   ctx.states,
	}
	if ctx.Out == nil && cfg.Emit != nil {
		f.out.open(cfg.Emit, cfg.Pool)
		ctx.Out = &f.out
	}
	cfg.Trace.StartRun(alg.Name(), ctx.M)
	outBefore := ctx.Out.mark()
	sw := clock.StartStopwatch()
	var err error
	if ctx.Out == nil {
		err = alg.Run(ctx)
	} else {
		// The algorithm runs on a goroutine of its own and this one
		// delivers its results until it returns — also when it failed.
		f.alg = alg
		go f.run()
		err = ctx.Out.serve(f.done)
	}
	ctx.giveBack()
	if emitErr := ctx.Out.err(); emitErr != nil {
		err = emitErr
	} else if err != nil {
		err = fmt.Errorf("core: %s: %w", alg.Name(), err)
	}
	if err != nil {
		return metrics.Result{}, err
	}
	wall := sw.ElapsedNs()
	// The Result shares no memory with the collector, which the frame
	// keeps for the next run.
	res := ctx.M.Snapshot(alg.Name(), int64(len(r)+len(s)), wall)
	res.Pool = cfg.Pool.Stats().Since(poolBefore)
	res.Output = ctx.Out.stats().Since(outBefore)
	return res, nil
}
