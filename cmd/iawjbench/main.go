// Command iawjbench regenerates the paper's tables and figures.
//
// Usage:
//
//	iawjbench -exp fig5                 # one experiment
//	iawjbench -all                      # the whole evaluation section
//	iawjbench -exp fig9 -threads 8 -window 1000 -scale 0.1
//
// Experiment ids follow the paper: table3, table5, table6, fig3..fig21.
// Defaults run a scaled-down configuration that finishes in seconds;
// raise -scale / -window toward paper magnitudes for slower, closer runs.
//
// Observability (see OBSERVABILITY.md):
//
//	iawjbench -exp fig7 -trace trace.json     # Chrome trace (Perfetto)
//	iawjbench -all -journal runs.jsonl        # one JSON summary per run
//	iawjbench -all -listen 127.0.0.1:9090     # /metrics + /debug/pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	var (
		expID     = flag.String("exp", "", "experiment id to run ("+strings.Join(exp.IDs(), ", ")+")")
		all       = flag.Bool("all", false, "run every experiment")
		threads   = flag.Int("threads", 0, "worker threads (default min(8, GOMAXPROCS))")
		scale     = flag.Float64("scale", 0.02, "real-world workload scale (1 = paper magnitude)")
		window    = flag.Int64("window", 100, "Micro sweep window length in ms (paper: 1000)")
		seed      = flag.Uint64("seed", 42, "workload generation seed")
		simNs     = flag.Float64("nsperms", 0, "real ns per simulated ms (0 = default compression)")
		traceOut  = flag.String("trace", "", "write per-worker phase spans as Chrome trace JSON to this file")
		journal   = flag.String("journal", "", "append one JSONL run summary per run to this file")
		listen    = flag.String("listen", "", "serve /metrics, /debug/pprof and /debug/vars on this address")
		spanCap   = flag.Int("spancap", 0, "trace ring capacity per worker (0 = default)")
		traceTIDs = flag.Int("tracetids", 0, "trace worker slots (0 = max(threads, GOMAXPROCS))")
		sample    = flag.Duration("sample", 0, "record runtime samples (GC, heap, goroutines) at this interval (0 = off)")
	)
	flag.Parse()

	opts := exp.Options{
		W:             os.Stdout,
		Threads:       *threads,
		Scale:         gen.Scale(*scale),
		MicroWindowMs: *window,
		NsPerSimMs:    *simNs,
		Seed:          *seed,
	}

	tids := *traceTIDs
	if tids <= 0 {
		// Thread-sweep experiments (e.g. fig20) exceed the default
		// thread count; leave headroom so their workers are traced too.
		tids = max(opts.Threads, 16)
	}
	obs := &trace.Session{
		TracePath:    *traceOut,
		JournalPath:  *journal,
		ServeAddr:    *listen,
		SampleEvery:  *sample,
		TraceWorkers: tids,
		SpanCap:      *spanCap,
	}
	if err := obs.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts.Trace = obs.Recorder
	if *journal != "" || *listen != "" {
		opts.OnResult = func(res metrics.Result) {
			if err := obs.Record(res); err != nil {
				fmt.Fprintln(os.Stderr, "iawjbench: journal:", err)
			}
		}
	}

	switch {
	case *all:
		exp.RunAll(opts)
	case *expID != "":
		if err := exp.Run(*expID, opts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "iawjbench: pass -exp <id> or -all; available ids:")
		fmt.Fprintln(os.Stderr, " ", strings.Join(exp.IDs(), " "))
		os.Exit(2)
	}

	if err := obs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
