// Command iawjjoin runs one intra-window join and reports the metrics the
// study measures. Inputs come from CSV files, a named synthetic workload,
// a workload spec (internal/workloadspec, WORKLOADS.md) or live tagged TCP
// streams; the algorithm can be fixed or left to the decision tree.
//
// Usage:
//
//	iawjjoin -inR trades.csv -inS quotes.csv -algorithm SHJ_JM
//	iawjjoin -workload Rovio -scale 0.01 -algorithm ADAPTIVE -format json
//	iawjjoin -spec examples/specs/mixed.json -windowms 500 -algorithm SHJ_JM
//	iawjjoin -listen 127.0.0.1:7654 -algorithm NPJ   # waits for R and S streams
//
// A spec is the whole description of its workload: -seed and -scale do
// not apply to it, and its window_ms is the input's window.
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
//
// Three more modes load the input the same way and do not join it:
//
//	iawjjoin -stats                                   # Table 3 rows of Stock, Rovio, YSB, DEBS
//	iawjjoin -workload Rovio -scale 0.05 -out rovio   # rovio_R.csv / rovio_S.csv
//	iawjjoin -workload Micro -rate 1600 -dupe 10 -keyskew 0.5 -out micro
//	iawjjoin -inR trades.csv -inS quotes.csv -advise  # Figure 4's pick for this input
//
// -advise -algorithm all also joins the input with each of the eight
// algorithms and marks the recommended one. A flag the chosen mode does
// not read is a usage error (exit 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	iawj "repro"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/workloadspec"
)

// Flags that not every mode or input reads; the input flags (-inR/-inS,
// -workload, -scale, -seed, -spec, -listen) are read by all four modes.
var (
	// joinFlags configure a join: the join mode's and -advise's.
	joinFlags = []string{"algorithm", "threads", "objective", "atrest", "radixbits", "sortstep", "groupsize", "spill"}
	// runFlags observe or slice the join mode's run.
	runFlags = []string{"format", "trace", "journal", "windowms", "slide"}
	// microFlags shape -workload Micro.
	microFlags = []string{"rate", "dupe", "keyskew", "tsskew"}
	// genFlags parameterize a generated workload; a spec carries its own.
	genFlags = []string{"seed", "scale"}
)

func main() {
	var (
		inR       = flag.String("inR", "", "CSV file for stream R")
		inS       = flag.String("inS", "", "CSV file for stream S")
		workload  = flag.String("workload", "", "synthetic workload (Stock, Rovio, YSB, DEBS, Micro)")
		spec      = flag.String("spec", "", "workload spec JSON file (WORKLOADS.md)")
		scale     = flag.Float64("scale", 0.02, "workload scale (1 = paper magnitude: the real-world tuple counts, Micro's 1000 ms window)")
		rate      = flag.Int("rate", 1600, "Micro: arrival rate of both streams (tuples/ms)")
		dupe      = flag.Int("dupe", 1, "Micro: average duplicates per key")
		keySkew   = flag.Float64("keyskew", 0, "Micro: Zipf factor of keys")
		tsSkew    = flag.Float64("tsskew", 0, "Micro: Zipf factor of arrival timestamps")
		listen    = flag.String("listen", "", "accept R/S streams on this TCP address instead of files")
		algorithm = flag.String("algorithm", iawj.AdaptiveName, "algorithm name or ADAPTIVE (with -advise: all)")
		threads   = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		objective = flag.String("objective", "throughput", "what ADAPTIVE and -advise optimize: throughput | latency | progressiveness")
		atRest    = flag.Bool("atrest", false, "treat inputs as data at rest (no arrival simulation)")
		radixBits = flag.Int("radixbits", 0, "PRJ #r (0 = default 10, at most 20)")
		sortStep  = flag.Float64("sortstep", 0, "PMJ δ as a fraction (0 = default)")
		groupSize = flag.Int("groupsize", 0, "JB group size g (0 = default 1, at most -threads)")
		spillDir  = flag.String("spill", "", "PMJ disk-spill directory")
		format    = flag.String("format", "text", "output format: text | json")
		seed      = flag.Uint64("seed", 42, "seed for synthetic workloads")
		traceOut  = flag.String("trace", "", "write per-worker phase spans as Chrome trace JSON to this file")
		journal   = flag.String("journal", "", "append JSONL run/window records to this file (iawj-journal/v2)")
		windowMs  = flag.Int64("windowms", 0, "slice inputs into windows of this many ms and join per window (0 = one window)")
		slideMs   = flag.Int64("slide", 0, "slide of the window in ms (with -windowms; 0 = tumbling)")
		stats     = flag.Bool("stats", false, "print the input's Table 3 row (of all four real-world workloads when no input is given); no join")
		out       = flag.String("out", "", "write the input to <out>_R.csv and <out>_S.csv; no join")
		advise    = flag.Bool("advise", false, "print the Figure 4 recommendation for the input; no join unless -algorithm all")
	)
	flag.Parse()

	mode, err := pickMode(*stats, *out != "", *advise, *workload, *spec != "", *algorithm)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iawjjoin: %v\n", err)
		os.Exit(2)
	}
	obj, ok := parseObjective(*objective)
	if !ok {
		fmt.Fprintf(os.Stderr, "iawjjoin: unknown objective %q\n", *objective)
		os.Exit(2)
	}

	in := inputs{inR: *inR, inS: *inS, workload: *workload, spec: *spec, listen: *listen, scale: *scale, seed: *seed,
		micro: gen.MicroConfig{
			RateR: *rate, RateS: *rate, WindowMs: max(1, int64(*scale*1000)),
			Dupe: *dupe, KeySkew: *keySkew, TSSkew: *tsSkew, Seed: *seed,
		}}
	if mode == "stats" && in.none() {
		for _, name := range gen.Names() {
			w, err := gen.ByName(name, gen.Scale(*scale), *seed)
			if err != nil {
				fatal(err)
			}
			printStats(w)
		}
		return
	}
	w, err := in.load()
	if err != nil {
		fatal(err)
	}
	switch mode {
	case "stats":
		printStats(w)
		return
	case "out":
		if err := writeCSV(*out, w); err != nil {
			fatal(err)
		}
		return
	}

	w.AtRest = w.AtRest || *atRest
	cfg := iawj.Config{
		Algorithm:    *algorithm,
		Threads:      *threads,
		AtRest:       w.AtRest,
		Objective:    obj,
		RadixBits:    *radixBits,
		SortStepFrac: *sortStep,
		GroupSize:    *groupSize,
		SpillDir:     *spillDir,
	}
	if mode == "advise" {
		runAdvise(w, cfg, *algorithm == "all")
		return
	}

	if *format != "text" && *format != "json" {
		fatal(fmt.Errorf("iawjjoin: unknown format %q", *format))
	}
	obs := &trace.Session{
		TracePath:   *traceOut,
		JournalPath: *journal,
		Stdout:      *format == "json",
	}
	if err := obs.Start(); err != nil {
		fatal(err)
	}
	cfg.Trace = obs.Recorder

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

// pickMode names what the invocation does — join, stats, out or advise —
// and rejects a flag that mode does not read, so no flag is silently
// ignored.
func pickMode(stats, out, advise bool, workload string, spec bool, algorithm string) (string, error) {
	mode := "join"
	for _, m := range []struct {
		on   bool
		name string
	}{{stats, "stats"}, {out, "out"}, {advise, "advise"}} {
		if !m.on {
			continue
		}
		if mode != "join" {
			return "", fmt.Errorf("-%s and -%s are separate modes", mode, m.name)
		}
		mode = m.name
	}
	var err error
	flag.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case slices.Contains(microFlags, f.Name) && workload != "Micro":
			err = fmt.Errorf("-%s shapes the Micro workload; it needs -workload Micro", f.Name)
		case slices.Contains(genFlags, f.Name) && spec:
			err = fmt.Errorf("-%s does not apply to -spec: the spec file is the whole description", f.Name)
		case slices.Contains(runFlags, f.Name) && mode != "join",
			slices.Contains(joinFlags, f.Name) && (mode == "stats" || mode == "out"):
			err = fmt.Errorf("-%s does not apply to -%s", f.Name, mode)
		}
	})
	if err != nil {
		return "", err
	}
	switch {
	case mode == "advise" && algorithm != "all" && algorithm != iawj.AdaptiveName:
		return "", fmt.Errorf("-advise takes -algorithm all (race the eight) or no -algorithm, not %q", algorithm)
	case mode != "advise" && algorithm == "all":
		return "", fmt.Errorf("-algorithm all needs -advise")
	}
	return mode, nil
}

// parseObjective maps an objective's name to its value.
func parseObjective(name string) (iawj.Objective, bool) {
	for _, o := range []iawj.Objective{iawj.OptThroughput, iawj.OptLatency, iawj.OptProgressiveness} {
		if o.String() == name {
			return o, true
		}
	}
	return 0, false
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
	if format != "text" {
		return
	}
	joined := 0
	for _, wr := range results {
		if wr.Result.Algorithm != "" { // else input on one side only: no join ran
			joined++
		}
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

// runAdvise prints the Figure 4 recommendation for the input's profile.
// With race it also joins the input with each of the eight algorithms,
// marks the recommended one and names the measured best.
func runAdvise(w gen.Workload, cfg iawj.Config, race bool) {
	cores := cfg.Threads
	if cores <= 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	adv := iawj.Advise(iawj.ProfileWorkload(w, cores, cfg.Objective))
	fmt.Printf("recommended: %s\n", adv.Algorithm)
	for _, step := range adv.Path {
		fmt.Printf("  - %s\n", step)
	}
	if !race {
		return
	}
	fmt.Printf("\n%-8s %14s %14s %10s\n", "algo", "tput(t/ms)", "p95 lat(ms)", "t50%(ms)")
	best, bestScore := "", 0.0
	for _, name := range iawj.Algorithms() {
		cfg.Algorithm = name
		res, err := iawj.JoinWorkload(w, cfg)
		if err != nil {
			fatal(err)
		}
		score := res.ThroughputTPM
		switch cfg.Objective {
		case iawj.OptLatency:
			score = -float64(res.LatencyP95Ms)
		case iawj.OptProgressiveness:
			score = -float64(res.TimeToFrac(0.5))
		}
		if best == "" || score > bestScore {
			best, bestScore = name, score
		}
		marker := ""
		if name == adv.Algorithm {
			marker = " <-"
		}
		fmt.Printf("%-8s %14.1f %14d %10d%s\n", name, res.ThroughputTPM, res.LatencyP95Ms, res.TimeToFrac(0.5), marker)
	}
	fmt.Printf("measured best for %s: %s\n", cfg.Objective, best)
}

// inputs is what the input flags name; every mode loads through it.
type inputs struct {
	inR, inS, workload, spec, listen string
	scale                            float64
	seed                             uint64
	micro                            gen.MicroConfig
}

// none reports whether no input was named.
func (in inputs) none() bool {
	return in.inR == "" && in.inS == "" && in.workload == "" && in.spec == "" && in.listen == ""
}

func (in inputs) load() (gen.Workload, error) {
	switch {
	case in.listen != "":
		srv, err := ingest.Listen(in.listen)
		if err != nil {
			return gen.Workload{}, err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "listening on %s for tagged R and S streams...\n", srv.Addr())
		r, s, err := srv.AcceptPair(1 << 26)
		if err != nil {
			return gen.Workload{}, err
		}
		return gen.FromRelations("network", r, s), nil
	case in.inR != "" && in.inS != "":
		return gen.LoadCSVWorkload("csv", in.inR, in.inS)
	case in.spec != "":
		data, err := os.ReadFile(in.spec)
		if err != nil {
			return gen.Workload{}, err
		}
		sp, err := workloadspec.Parse(data)
		if err != nil {
			return gen.Workload{}, err
		}
		return workloadspec.Compile(sp, workloadspec.Options{BaseDir: filepath.Dir(in.spec)})
	case in.workload == "Micro":
		return gen.Micro(in.micro), nil
	case in.workload != "":
		return gen.ByName(in.workload, gen.Scale(in.scale), in.seed)
	}
	return gen.Workload{}, fmt.Errorf("iawjjoin: provide -inR/-inS, -workload, -spec, or -listen")
}

// printStats prints the workload's Table 3 row.
func printStats(w gen.Workload) {
	r, s := w.R.Summarize(), w.S.Summarize()
	fmt.Printf("%-8s |R|=%-8d |S|=%-8d vR=%-8.1f vS=%-8.1f dupeR=%-8.1f dupeS=%-8.1f skewR=%.3f skewS=%.3f atRest=%v\n",
		w.Name, r.Tuples, s.Tuples, r.Rate, s.Rate, r.Dupe, s.Dupe, r.KeySkew, s.KeySkew, w.AtRest)
}

// writeCSV writes the workload as <prefix>_R.csv and <prefix>_S.csv.
func writeCSV(prefix string, w gen.Workload) error {
	for _, side := range []struct {
		suffix string
		rel    tuple.Relation
	}{{"_R.csv", w.R}, {"_S.csv", w.S}} {
		path := prefix + side.suffix
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = gen.WriteCSV(f, side.rel)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d tuples)\n", path, len(side.rel))
	}
	return nil
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
