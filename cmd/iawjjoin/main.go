// Command iawjjoin runs one intra-window join and reports the metrics the
// study measures. Inputs come from CSV files, a named synthetic workload,
// or live tagged TCP streams; the algorithm can be fixed or left to the
// decision tree.
//
// Usage:
//
//	iawjjoin -inR trades.csv -inS quotes.csv -algorithm SHJ_JM
//	iawjjoin -workload Rovio -scale 0.01 -algorithm ADAPTIVE -format json
//	iawjjoin -listen 127.0.0.1:7654 -algorithm NPJ   # waits for R and S streams
//
// With -windowms the inputs are sliced into tumbling (or, with -slide,
// sliding) windows and joined per window pair; a -journal then records the
// per-window run ledger (iawj-journal/v2 window records).
//
//	iawjjoin -workload Stock -windowms 50 -journal runs.jsonl -algorithm SHJ_JM
//
// -format json prints the same records on stdout — a header, then one run
// record or one window record per joined window — so the output is itself
// a journal cmd/iawjinspect reads.
package main

import (
	"flag"
	"fmt"
	"os"

	iawj "repro"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/trace"
)

func main() {
	var (
		inR       = flag.String("inR", "", "CSV file for stream R")
		inS       = flag.String("inS", "", "CSV file for stream S")
		workload  = flag.String("workload", "", "synthetic workload (Stock, Rovio, YSB, DEBS)")
		scale     = flag.Float64("scale", 0.02, "workload scale (1 = paper magnitude)")
		listen    = flag.String("listen", "", "accept R/S streams on this TCP address instead of files")
		algorithm = flag.String("algorithm", iawj.AdaptiveName, "algorithm name or ADAPTIVE")
		threads   = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		atRest    = flag.Bool("atrest", false, "treat inputs as data at rest (no arrival simulation)")
		simd      = flag.Bool("simd", true, "use the vectorized-substitute sort kernels")
		radixBits = flag.Int("radixbits", 0, "PRJ #r (0 = default 10, at most 20)")
		sortStep  = flag.Float64("sortstep", 0, "PMJ δ as a fraction (0 = default)")
		groupSize = flag.Int("groupsize", 0, "JB group size g (0 = default 1, at most -threads)")
		spillDir  = flag.String("spill", "", "PMJ disk-spill directory")
		format    = flag.String("format", "text", "output format: text | json")
		seed      = flag.Uint64("seed", 42, "seed for synthetic workloads")
		traceOut  = flag.String("trace", "", "write per-worker phase spans as Chrome trace JSON to this file")
		journal   = flag.String("journal", "", "append JSONL run/window records to this file (iawj-journal/v2)")
		serve     = flag.String("serve", "", "serve /metrics, /debug/pprof and /debug/vars on this address")
		windowMs  = flag.Int64("windowms", 0, "slice inputs into windows of this many ms and join per window (0 = one window)")
		slideMs   = flag.Int64("slide", 0, "slide of the window in ms (with -windowms; 0 = tumbling)")
		sample    = flag.Duration("sample", 0, "record runtime samples (GC, heap, goroutines) at this interval (0 = off)")
	)
	flag.Parse()

	w, err := loadInputs(*inR, *inS, *workload, *listen, *scale, *seed)
	if err != nil {
		fatal(err)
	}

	cfg := iawj.Config{
		Algorithm:    *algorithm,
		Threads:      *threads,
		AtRest:       *atRest || w.AtRest,
		SIMD:         *simd,
		RadixBits:    *radixBits,
		SortStepFrac: *sortStep,
		GroupSize:    *groupSize,
		SpillDir:     *spillDir,
	}

	if *format != "text" && *format != "json" {
		fatal(fmt.Errorf("iawjjoin: unknown format %q", *format))
	}
	obs := &trace.Session{
		TracePath:    *traceOut,
		JournalPath:  *journal,
		Stdout:       *format == "json",
		ServeAddr:    *serve,
		SampleEvery:  *sample,
		TraceWorkers: *threads,
		WantPool:     *windowMs > 0,
	}
	if err := obs.Start(); err != nil {
		fatal(err)
	}
	cfg.Trace = obs.Recorder
	cfg.Pool = obs.Pool

	if *windowMs > 0 {
		runWindowed(w, cfg, *windowMs, *slideMs, obs, *format)
	} else {
		res, err := iawj.JoinWorkload(w, cfg)
		if err != nil {
			fatal(err)
		}
		if err := obs.Record(res); err != nil {
			fatal(err)
		}
		if *format == "text" {
			printText(w, res)
		}
	}
	if err := obs.Close(); err != nil {
		fatal(err)
	}
}

// runWindowed slices the workload with a tumbling or sliding spec and
// joins per window; the session's journal records the per-window ledger.
func runWindowed(w gen.Workload, cfg iawj.Config, windowMs, slideMs int64, obs *trace.Session, format string) {
	spec := iawj.WindowSpec{Kind: iawj.Tumbling, LengthMs: windowMs}
	if slideMs > 0 {
		spec.Kind = iawj.Sliding
		spec.SlideMs = slideMs
	}
	cfg.Journal = obs.Journal
	results, err := iawj.JoinWindowedParallel(w.R, w.S, spec, cfg, 1)
	if err != nil {
		fatal(err)
	}
	joined := 0
	for _, wr := range results {
		if wr.Result.Algorithm != "" { // else input on one side only: no join ran
			joined++
			obs.Registry.Observe(wr.Result)
		}
	}
	if format != "text" {
		return
	}
	fmt.Printf("workload    %s (|R|=%d |S|=%d window=%dms slide=%dms)\n",
		w.Name, len(w.R), len(w.S), windowMs, slideMs)
	fmt.Printf("windows     %d total, %d joined\n", len(results), joined)
	fmt.Printf("matches     %d\n", iawj.TotalMatches(results))
	fmt.Printf("%-8s %10s %10s %-10s %12s %14s %10s\n",
		"window", "start_ms", "end_ms", "algorithm", "matches", "tuples/ms", "p95_ms")
	for i, wr := range results {
		if wr.Result.Algorithm == "" {
			fmt.Printf("%-8d %10d %10d %-10s %12s %14s %10s\n", i, wr.Start, wr.End, "-", "-", "-", "-")
			continue
		}
		fmt.Printf("%-8d %10d %10d %-10s %12d %14.1f %10d\n",
			i, wr.Start, wr.End, wr.Result.Algorithm, wr.Result.Matches,
			wr.Result.ThroughputTPM, wr.Result.LatencyP95Ms)
	}
}

func loadInputs(inR, inS, workload, listen string, scale float64, seed uint64) (gen.Workload, error) {
	switch {
	case listen != "":
		srv, err := ingest.Listen(listen)
		if err != nil {
			return gen.Workload{}, err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "listening on %s for tagged R and S streams...\n", srv.Addr())
		r, s, err := srv.AcceptPair(1 << 26)
		if err != nil {
			return gen.Workload{}, err
		}
		w := gen.Workload{Name: "network", R: r, S: s}
		w.WindowMs = r.MaxTS()
		if m := s.MaxTS(); m > w.WindowMs {
			w.WindowMs = m
		}
		w.AtRest = w.WindowMs == 0
		return w, nil
	case inR != "" && inS != "":
		return gen.LoadCSVWorkload("csv", inR, inS)
	case workload != "":
		return gen.ByName(workload, gen.Scale(scale), seed)
	}
	return gen.Workload{}, fmt.Errorf("iawjjoin: provide -inR/-inS, -workload, or -listen")
}

func printText(w gen.Workload, res iawj.Result) {
	fmt.Printf("workload    %s (|R|=%d |S|=%d window=%dms atRest=%v)\n",
		w.Name, len(w.R), len(w.S), w.WindowMs, w.AtRest)
	fmt.Printf("algorithm   %s (%d threads)\n", res.Algorithm, res.Threads)
	fmt.Printf("matches     %d\n", res.Matches)
	fmt.Printf("throughput  %.1f tuples/ms\n", res.ThroughputTPM)
	fmt.Printf("latency     p50=%dms p95=%dms p99=%dms max=%dms\n",
		res.LatencyP50Ms, res.LatencyP95Ms, res.LatencyP99Ms, res.LatencyMaxMs)
	fmt.Printf("progress    50%% of matches by %dms\n", res.TimeToFrac(0.5))
	fmt.Printf("cpu util    %.1f%%\n", res.CPUUtil*100)
	fmt.Printf("peak mem    %d bytes\n", res.MemPeakBytes)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
