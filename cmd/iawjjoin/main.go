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
// per-window run ledger (iawj-journal/v2 window records) that
// cmd/iawjreport compares.
//
//	iawjjoin -workload Stock -windowms 50 -journal runs.jsonl -algorithm SHJ_JM
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

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
		radixBits = flag.Int("radixbits", 0, "PRJ #r (0 = default)")
		sortStep  = flag.Float64("sortstep", 0, "PMJ δ as a fraction (0 = default)")
		groupSize = flag.Int("groupsize", 0, "JB group size g (0 = default)")
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

	var rec *iawj.TraceRecorder
	if *traceOut != "" || *serve != "" {
		tids := *threads
		if n := runtime.GOMAXPROCS(0); tids < n {
			tids = n
		}
		rec = iawj.NewTraceRecorder(tids, 0)
		cfg.Trace = rec
	}
	var smp *trace.Sampler
	if *sample > 0 {
		smp = trace.NewSampler(*sample, 0)
		smp.Start()
		defer smp.Stop()
	}
	reg := trace.NewRegistry()
	if *serve != "" {
		reg.Attach(rec)
		reg.AttachSampler(smp)
		addr, err := trace.Serve(*serve, reg, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", addr)
	}

	if *windowMs > 0 {
		// Before the journal header: the first pool of the process
		// calibrates the probe-prefetch distance the header records.
		cfg.Pool = iawj.NewStatePool()
	}
	var jw *trace.JournalWriter
	var jf *os.File
	if *journal != "" {
		jf, err = os.OpenFile(*journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		jw = trace.NewJournalWriter(jf)
		jw.Attach(rec, smp)
		if err := jw.WriteHeader(); err != nil {
			fatal(err)
		}
	}

	if *windowMs > 0 {
		runWindowed(w, cfg, *windowMs, *slideMs, jw, reg, *format)
		closeJournal(jf)
		writeTrace(*traceOut, rec)
		return
	}

	res, err := iawj.JoinWorkload(w, cfg)
	if err != nil {
		fatal(err)
	}
	// Stop the sampler before journaling so the run record carries a
	// sample even when the run was shorter than one interval.
	smp.Stop()
	reg.Observe(res)

	writeTrace(*traceOut, rec)
	if err := jw.Write(res); err != nil {
		fatal(err)
	}
	closeJournal(jf)

	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report(w, res)); err != nil {
			fatal(err)
		}
	case "text":
		printText(w, res)
	default:
		fatal(fmt.Errorf("iawjjoin: unknown format %q", *format))
	}
}

// runWindowed slices the workload with a tumbling or sliding spec and
// joins per window; cfg.Journal records the per-window ledger.
func runWindowed(w gen.Workload, cfg iawj.Config, windowMs, slideMs int64, jw *trace.JournalWriter, reg *trace.Registry, format string) {
	spec := iawj.WindowSpec{Kind: iawj.Tumbling, LengthMs: windowMs}
	if slideMs > 0 {
		spec.Kind = iawj.Sliding
		spec.SlideMs = slideMs
	}
	cfg.Journal = jw
	results, err := iawj.JoinWindowed(w.R, w.S, spec, cfg)
	if err != nil {
		fatal(err)
	}
	joined := 0
	for _, wr := range results {
		if wr.Result.Algorithm != "" {
			joined++
			reg.Observe(wr.Result)
		}
	}
	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		type windowReport struct {
			Window  int         `json:"window"`
			StartMs int64       `json:"start_ms"`
			EndMs   int64       `json:"end_ms"`
			Summary *jsonReport `json:"summary,omitempty"`
		}
		out := make([]windowReport, 0, len(results))
		for i, wr := range results {
			rep := windowReport{Window: i, StartMs: wr.Start, EndMs: wr.End}
			if wr.Result.Algorithm != "" {
				r := report(w, wr.Result)
				rep.Summary = &r
			}
			out = append(out, rep)
		}
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	case "text":
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
	default:
		fatal(fmt.Errorf("iawjjoin: unknown format %q", format))
	}
}

func writeTrace(path string, rec *iawj.TraceRecorder) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := trace.WriteChrome(f, rec); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func closeJournal(f *os.File) {
	if f == nil {
		return
	}
	if err := f.Close(); err != nil {
		fatal(err)
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

// jsonReport is the machine-readable run summary.
type jsonReport struct {
	Workload      string  `json:"workload"`
	Algorithm     string  `json:"algorithm"`
	Threads       int     `json:"threads"`
	Inputs        int64   `json:"inputs"`
	Matches       int64   `json:"matches"`
	ThroughputTPM float64 `json:"throughput_tuples_per_ms"`
	LatencyP50Ms  int64   `json:"latency_p50_ms"`
	LatencyP95Ms  int64   `json:"latency_p95_ms"`
	LatencyP99Ms  int64   `json:"latency_p99_ms"`
	LatencyMaxMs  int64   `json:"latency_max_ms"`
	TimeTo50Pct   int64   `json:"time_to_50pct_matches_ms"`
	CPUUtil       float64 `json:"cpu_utilization"`
	MemPeakBytes  int64   `json:"mem_peak_bytes"`
	PhaseNs       struct {
		Wait      int64 `json:"wait"`
		Partition int64 `json:"partition"`
		BuildSort int64 `json:"build_sort"`
		Merge     int64 `json:"merge"`
		Probe     int64 `json:"probe"`
		Others    int64 `json:"others"`
	} `json:"phase_ns"`
}

func report(w gen.Workload, res iawj.Result) jsonReport {
	out := jsonReport{
		Workload:      w.Name,
		Algorithm:     res.Algorithm,
		Threads:       res.Threads,
		Inputs:        res.Inputs,
		Matches:       res.Matches,
		ThroughputTPM: res.ThroughputTPM,
		LatencyP50Ms:  res.LatencyP50Ms,
		LatencyP95Ms:  res.LatencyP95Ms,
		LatencyP99Ms:  res.LatencyP99Ms,
		LatencyMaxMs:  res.LatencyMaxMs,
		TimeTo50Pct:   res.TimeToFrac(0.5),
		CPUUtil:       res.CPUUtil,
		MemPeakBytes:  res.MemPeakBytes,
	}
	out.PhaseNs.Wait = res.PhaseNs[0]
	out.PhaseNs.Partition = res.PhaseNs[1]
	out.PhaseNs.BuildSort = res.PhaseNs[2]
	out.PhaseNs.Merge = res.PhaseNs[3]
	out.PhaseNs.Probe = res.PhaseNs[4]
	out.PhaseNs.Others = res.PhaseNs[5]
	return out
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
