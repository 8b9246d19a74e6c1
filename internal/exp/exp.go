// Package exp regenerates every table and figure of the paper's evaluation
// (Section 5). Each experiment function prints the same rows/series the
// paper reports and returns the underlying numbers for tests and
// benchmarks. DESIGN.md carries the experiment index; EXPERIMENTS.md
// records paper-vs-measured shape.
//
// Workload sizes default to a scaled-down configuration so the whole suite
// runs in seconds; Options.Scale and Options.MicroWindowMs restore
// paper-scale inputs when desired.
package exp

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/joins"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Options configures an experiment run.
type Options struct {
	// W receives the printed rows; defaults to os.Stdout.
	W io.Writer
	// Threads is the worker count (paper: 8). Defaults to
	// min(8, GOMAXPROCS).
	Threads int
	// Scale shrinks the real-world workloads; default 0.02.
	Scale gen.Scale
	// MicroWindowMs is the window used by the Micro sweeps; the paper
	// uses 1000ms, the default here is 100ms to keep input counts small.
	MicroWindowMs int64
	// NsPerSimMs compresses simulated time; default core default.
	NsPerSimMs float64
	// Seed fixes workload generation.
	Seed uint64
	// Trace, when non-nil, records per-worker phase spans of every run
	// into the recorder (each run tagged with its algorithm name).
	Trace *trace.Recorder
	// OnResult, when non-nil, observes every successful run's merged
	// metrics — the hook the journal uses.
	OnResult func(metrics.Result)
}

func (o *Options) defaults() {
	if o.W == nil {
		o.W = os.Stdout
	}
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
		if o.Threads > 8 {
			o.Threads = 8
		}
	}
	if o.Scale <= 0 {
		o.Scale = 0.02
	}
	if o.MicroWindowMs <= 0 {
		o.MicroWindowMs = 100
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// Algorithms lists the eight studied algorithms in Table 2 order.
var Algorithms = joins.All()

// mustAlg instantiates an algorithm by name; exp only uses known names.
func mustAlg(name string) core.Algorithm {
	alg, err := joins.New(name)
	if err != nil {
		panic("exp: " + err.Error())
	}
	return alg
}

// run executes one algorithm over a workload with the options' defaults.
func run(o *Options, w gen.Workload, name string, knobs core.Knobs) (metrics.Result, error) {
	cfg := core.RunConfig{
		Threads:    o.Threads,
		NsPerSimMs: o.NsPerSimMs,
		AtRest:     w.AtRest,
		Knobs:      knobs,
		Trace:      o.Trace,
	}
	// The paper tunes each algorithm to its optimal configuration for the
	// overall comparison; the zero knobs are that configuration (the radix
	// sort; #r and δ default in core).
	res, err := core.Run(mustAlg(name), w.R, w.S, w.WindowMs, cfg)
	if err == nil && o.OnResult != nil {
		o.OnResult(res)
	}
	return res, err
}

// header prints an experiment banner.
func header(o *Options, id, title string) {
	fmt.Fprintf(o.W, "\n== %s: %s ==\n", id, title)
}

// fmtTPM renders a throughput in tuples per (simulated) millisecond.
func fmtTPM(v float64) string { return fmt.Sprintf("%10.1f", v) }
