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
	"sync"
	"time"

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
	// SIMD toggles the vectorized-substitute sort kernels (Figure 21).
	SIMD bool
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
	// Trace, when non-nil, records per-worker phase spans (OBSERVABILITY.md).
	// Disabled tracing is free: TraceWorker returns a nil handle whose
	// methods are no-ops, so the hot path carries no branch and no
	// allocation per span.
	Trace *trace.Recorder
	// Out takes the run's materialized results to the caller's consumer;
	// nil counts only (the paper measures the join process, not downstream
	// consumption). Workers reach it through their Sink.
	Out *Outbox
	// Pool recycles per-window kernel state (hash tables, partitioner
	// scratch, match buffers) across windows; nil disables pooling, and
	// every pool method accepts the nil receiver, so algorithms call it
	// unconditionally (see internal/pool and PERFORMANCE.md).
	Pool *pool.Pool
}

// NowMs returns the current simulated time.
func (ctx *ExecContext) NowMs() int64 { return ctx.Clock.NowMs() }

// SetPhase forwards a phase transition to a phase-aware tracer so profile
// runs can attribute cache statistics per phase (Figure 8).
func (ctx *ExecContext) SetPhase(p metrics.Phase) {
	if ps, ok := ctx.Tracer.(cachesim.PhaseSetter); ok {
		ps.SetPhase(int(p))
	}
}

// Begin switches worker tid into phase p, updating the time breakdown,
// the span trace, and, if attached, the phase-aware cache tracer.
func (ctx *ExecContext) Begin(tid int, p metrics.Phase) {
	ctx.M.T(tid).Begin(p)
	if ctx.Trace != nil {
		ctx.Trace.T(tid).Begin(int(p))
	}
	if ctx.Tracer != nil {
		ctx.SetPhase(p)
	}
}

// EndPhase closes worker tid's current phase in both the time breakdown
// and the span trace; workers call it once when they finish.
func (ctx *ExecContext) EndPhase(tid int) {
	ctx.M.T(tid).End()
	if ctx.Trace != nil {
		ctx.Trace.T(tid).End()
	}
}

// TraceWorker returns worker tid's span-recording handle; nil (an inert,
// method-safe handle) when tracing is disabled.
func (ctx *ExecContext) TraceWorker(tid int) *trace.Worker {
	if ctx.Trace == nil {
		return nil
	}
	return ctx.Trace.T(tid)
}

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
		time.Sleep(50 * time.Microsecond)
	}
	ctx.EndPhase(tid)
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

// Parallel runs fn on threads worker goroutines, tid 0 to threads-1, and
// waits for all of them.
func Parallel(threads int, fn func(tid int)) {
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer wg.Done()
			fn(tid)
		}(t)
	}
	wg.Wait()
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
	// Trace records per-worker phase spans into the given recorder; the
	// run is tagged with the algorithm name via StartRun.
	Trace *trace.Recorder
	// Emit receives the materialized results, a batch of them at a time
	// and never from two goroutines at once (Outbox); nil counts only.
	// Everything is delivered when Run returns.
	Emit func(tuple.JoinResult)
	// Out, when non-nil, is the outbox of a call that makes several runs
	// for one consumer (the windows of JoinWindowed*): the run delivers
	// through it instead of one of its own, Emit is ignored, and the
	// caller Closes it after its last run.
	Out *Outbox
	// Pool recycles per-window kernel state across runs; nil allocates
	// fresh state per run (the pre-pool behaviour).
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
	var src clock.Source
	if cfg.AtRest {
		// Static data ticks at the same compressed rate so latency and
		// throughput units stay comparable with streaming runs, and
		// short static joins still resolve to more than a tick or two.
		src = clock.NewStatic(ns)
	} else {
		src = clock.NewScaled(ns)
	}
	if cfg.WrapClock != nil {
		src = cfg.WrapClock(src)
	}
	if cfg.Trace != nil {
		cfg.Trace.StartRun(alg.Name())
	}
	poolBefore := cfg.Pool.Stats()
	ctx := &ExecContext{
		R:        r,
		S:        s,
		WindowMs: windowMs,
		BaseTS:   cfg.BaseTS,
		Threads:  threads,
		Clock:    src,
		M:        cfg.Pool.Collector(threads),
		Knobs:    knobs,
		Tracer:   cfg.Tracer,
		Trace:    cfg.Trace,
		Out:      cfg.Out,
		Pool:     cfg.Pool,
	}
	if ctx.Out == nil {
		ctx.Out = NewOutbox(cfg.Emit, cfg.Pool)
	}
	outBefore := ctx.Out.stats()
	sw := clock.StartStopwatch()
	err := alg.Run(ctx)
	// Every worker has closed its sink, so whatever it parked last is
	// delivered here at the latest — also when the algorithm failed.
	if cfg.Out == nil {
		ctx.Out.Close()
	} else {
		ctx.Out.drain()
	}
	if err != nil {
		cfg.Pool.PutCollector(ctx.M)
		return metrics.Result{}, fmt.Errorf("core: %s: %w", alg.Name(), err)
	}
	wall := sw.ElapsedNs()
	res := ctx.M.Snapshot(alg.Name(), int64(len(r)+len(s)), wall)
	// The Result shares no memory with the collector, which goes back for
	// the next run — as it did above when the algorithm failed.
	cfg.Pool.PutCollector(ctx.M)
	res.Pool = cfg.Pool.Stats().Since(poolBefore)
	res.Output = ctx.Out.stats().Since(outBefore)
	return res, nil
}
