// Package iawj is a Go reproduction of "Parallelizing Intra-Window Join on
// Multicores: An Experimental Study" (SIGMOD 2021).
//
// The intra-window join (IaWJ) joins two input streams over a single
// window. This package exposes the study's eight algorithms behind one
// API — four lazy relational joins (NPJ, PRJ, MWAY, MPASS) and four eager
// stream joins (SHJ/PMJ crossed with the JM/JB distribution schemes) —
// together with the paper's workload generators, performance metrics
// (throughput, quantile latency, progressiveness), and the Figure 4
// decision tree for choosing an algorithm.
//
// Quick start:
//
//	w := iawj.Micro(iawj.MicroConfig{RateR: 1600, RateS: 1600, WindowMs: 1000})
//	res, err := iawj.Join(w.R, w.S, iawj.Config{Algorithm: "SHJ_JM", Threads: 4})
//
// See examples/ for complete programs.
package iawj

import (
	"fmt"
	"io"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/joins"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// Tuple is one stream element {ts, key, payload}; see Definition 1.
type Tuple = tuple.Tuple

// Relation is a chronologically ordered list of tuples from one stream.
type Relation = tuple.Relation

// JoinResult is one output tuple; see Definition 2.
type JoinResult = tuple.JoinResult

// Result carries the merged metrics of one run: match count, throughput,
// latency quantiles, the progressiveness curve, the six-phase breakdown,
// and the memory timeline.
type Result = metrics.Result

// Config selects and tunes an algorithm for Join.
type Config struct {
	// Algorithm names one of Algorithms(): NPJ, PRJ, MWAY, MPASS,
	// SHJ_JM, SHJ_JB, PMJ_JM, PMJ_JB (or HANDSHAKE for the baseline).
	Algorithm string
	// Threads is the worker count; 0 uses GOMAXPROCS.
	Threads int
	// WindowMs is the window length w; 0 derives it from the inputs.
	WindowMs int64
	// NsPerSimMs scales simulated time (real nanoseconds per simulated
	// millisecond); 0 selects the default compression. Ignored with
	// AtRest.
	NsPerSimMs float64
	// AtRest disables arrival simulation: the whole input is available
	// instantly (static datasets).
	AtRest bool

	// Algorithm knobs of Section 5.5.
	RadixBits    int     // PRJ #r (default 10, at most 20)
	SortStepFrac float64 // PMJ δ (default 0.2)
	GroupSize    int     // JB g (default 1, at most Threads)
	BatchSize    int     // eager pull batch (default 64)
	SpillDir     string  // PMJ disk-spill directory ("" = in-memory runs)

	// Objective guides the ADAPTIVE dispatcher (see AdaptiveName); it is
	// ignored by the concrete algorithms.
	Objective Objective

	// Emit receives materialized join results; nil counts matches only.
	// Emit is never entered concurrently: the workers hand their results
	// over in batches, and the goroutine that called Join — or a worker,
	// when nobody else is delivering — runs Emit over one batch at a time,
	// so a consumer needs no lock of its own. It runs while the join goes
	// on — an eager join's results arrive within one pull round of being
	// found — and every result has been delivered when Join or
	// JoinWindowed* returns, whether or not the join failed. A consumer
	// slower than the join holds the workers back once a bounded backlog
	// of batches is full (Result.Output). A panic in Emit ends the call
	// with an error ("core: emit: panic: …") and drops the results not yet
	// delivered.
	Emit func(JoinResult)

	// Trace records per-worker phase spans into the recorder (see
	// NewTraceRecorder and OBSERVABILITY.md); their per-phase sums equal
	// the Result's PhaseNs. Nil leaves the run untraced, which costs one
	// nil check per phase change.
	Trace *TraceRecorder

	// Pool recycles per-window state (hash tables, partitioner scratch,
	// run copies, sort scratch, merge outputs, match buffers, router
	// status, the run's frame with its metrics collector) across joins
	// sharing the pool. Create one with NewStatePool and reuse it across
	// the windows of a stream; a steady-state window then allocates little
	// more than the Result it returns (PERFORMANCE.md §4). Nil gives the
	// call a fresh pool of its own, which allocates what the join asks
	// for and no more.
	Pool *StatePool

	// WrapClock, when non-nil, wraps the run's virtual time source
	// before any worker reads it. The conformance harness uses it to
	// inject deterministic schedule perturbation (clock.Perturb); see
	// TESTING.md. Most callers leave it nil.
	WrapClock func(ClockSource) ClockSource

	// Journal, when non-nil, receives the per-window run ledger: the
	// JoinWindowed* drivers append one iawj-journal/v2 window record per
	// completed window (OBSERVABILITY.md). Single-window Join calls
	// ignore it — their callers write run records directly.
	Journal *JournalWriter
}

// JournalWriter appends iawj-journal/v2 JSONL records; see
// NewJournalWriter, Config.Journal, and OBSERVABILITY.md.
type JournalWriter = trace.JournalWriter

// NewJournalWriter wraps w in a concurrency-safe journal writer; each
// record is one JSON line.
func NewJournalWriter(w io.Writer) *JournalWriter { return trace.NewJournalWriter(w) }

// ClockSource is the virtual time source algorithms run against; see
// internal/clock and Config.WrapClock.
type ClockSource = clock.Source

// StatePool is the reusable per-window kernel state arena; see
// NewStatePool and PERFORMANCE.md. A StatePool is safe for concurrent use
// by the workers of one join and by concurrent joins.
type StatePool = pool.Pool

// NewStatePool returns an empty state pool for Config.Pool.
func NewStatePool() *StatePool { return pool.New() }

// TraceRecorder is the per-worker phase-span recorder; see NewTraceRecorder.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a span recorder to pass as Config.Trace to one
// run at a time; export it with trace.WriteChrome or inspect Snapshot once
// the runs have returned. Each run grows it to its worker count, and a
// worker whose ring fills keeps all of its time at a coarser resolution.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// NewAlgorithm instantiates an algorithm by its paper name: one of
// Algorithms(), or HANDSHAKE for the related-work baseline. The names and
// their implementations are one table, internal/joins.
func NewAlgorithm(name string) (core.Algorithm, error) {
	alg, err := joins.New(name)
	if err != nil {
		return nil, fmt.Errorf("iawj: %w", err)
	}
	return alg, nil
}

// Algorithms lists the eight studied algorithms in the paper's Table 2
// order.
func Algorithms() []string { return joins.All() }

// LazyAlgorithms lists the lazy subset.
func LazyAlgorithms() []string { return joins.Lazy() }

// EagerAlgorithms lists the eager subset.
func EagerAlgorithms() []string { return joins.Eager() }

// Join runs the configured intra-window join over one window of r and s
// and returns the merged metrics. With Algorithm set to AdaptiveName the
// workload is profiled first and the decision tree picks the concrete
// algorithm (reported in Result.Algorithm).
func Join(r, s Relation, cfg Config) (Result, error) { return join(r, s, cfg, 0, nil) }

// join is Join over inputs whose timestamps count from baseTS: the
// windowed drivers pass each window's slices of the caller's streams as
// they are, with the window start as baseTS, and every timestamp reader
// below applies the offset (core.ExecContext.BaseTS). out is the outbox
// of a call that joins many windows for one Emit; nil gives the join its
// own.
func join(r, s Relation, cfg Config, baseTS int64, out *core.Outbox) (Result, error) {
	if cfg.Algorithm == AdaptiveName {
		cfg.Algorithm = core.Pick(adaptiveProfile(r, s, cfg, baseTS), core.DefaultThresholds())
	}
	alg, err := NewAlgorithm(cfg.Algorithm)
	if err != nil {
		return Result{}, err
	}
	return core.Run(alg, r, s, cfg.WindowMs, core.RunConfig{
		Threads:    cfg.Threads,
		NsPerSimMs: cfg.NsPerSimMs,
		AtRest:     cfg.AtRest,
		Knobs: core.Knobs{
			RadixBits:    cfg.RadixBits,
			SortStepFrac: cfg.SortStepFrac,
			GroupSize:    cfg.GroupSize,
			BatchSize:    cfg.BatchSize,
			SpillDir:     cfg.SpillDir,
		},
		Trace:     cfg.Trace,
		Emit:      cfg.Emit,
		Out:       out,
		Pool:      cfg.Pool,
		WrapClock: cfg.WrapClock,
		BaseTS:    baseTS,
	})
}

// ExpectedMatches computes the exact number of intra-window join matches
// by key-frequency multiplication — the ground truth the test suite checks
// every algorithm against.
func ExpectedMatches(r, s Relation) int64 { return tuple.ExpectedMatches(r, s) }
