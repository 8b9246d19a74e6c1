// Command iawjload drives the intra-window join from a workload spec
// through the open-loop load harness: a JSON spec (internal/workloadspec)
// describes N heterogeneous clients or one of the paper's preset
// workloads, the compiler lowers it to a deadline-ordered arrival plan,
// and the driver offers every tuple at its deadline — never gated on the
// joiner — reporting per-SLO-class offered rate and lateness quantiles
// before handing the collected streams to the windowed join.
//
// Usage:
//
//	iawjload -spec examples/specs/mixed.json
//	iawjload -spec examples/specs/stock.json -algorithm SHJ_JM -journal runs.jsonl
//	iawjload -spec examples/specs/mixed.json -validate
//
// With -journal the run appends per-class "openloop/<class>" run records
// plus the per-window ledger (iawj-journal/v2), so two load runs diff
// with cmd/iawjreport. -closed runs the closed-loop foil instead, for
// measuring the coordinated-omission gap on one plan (see WORKLOADS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	iawj "repro"
	"repro/internal/ingest"
	"repro/internal/trace"
	"repro/internal/workloadspec"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "workload spec JSON file (required)")
		validate  = flag.Bool("validate", false, "parse and compile the spec, print a summary, and exit")
		algorithm = flag.String("algorithm", iawj.AdaptiveName, "join algorithm name or ADAPTIVE")
		threads   = flag.Int("threads", 0, "worker threads per window join (0 = GOMAXPROCS)")
		workers   = flag.Int("workers", 1, "window pairs joined concurrently")
		nsPerMs   = flag.Float64("nspms", 1e5, "real nanoseconds per simulated millisecond (1e6 = real time)")
		closed    = flag.Bool("closed", false, "drive the plan closed-loop (the coordinated-omission foil)")
		journal   = flag.String("journal", "", "append per-class and per-window JSONL records to this file")
		format    = flag.String("format", "text", "output format: text | json")
		seed      = flag.Int64("seed", -1, "override the spec's seed (-1 = use the spec's)")
	)
	flag.Parse()

	if *specPath == "" {
		fatal(fmt.Errorf("iawjload: -spec is required"))
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fatal(err)
	}
	sp, err := workloadspec.Parse(data)
	if err != nil {
		fatal(err)
	}
	if *seed >= 0 {
		sp.Seed = uint64(*seed)
	}
	c, err := workloadspec.Compile(sp, workloadspec.Options{BaseDir: filepath.Dir(*specPath)})
	if err != nil {
		fatal(err)
	}
	if *validate {
		fmt.Printf("spec        %s (version %d, seed %d)\n", sp.Name, sp.Version, sp.Seed)
		if sp.Preset != nil {
			fmt.Printf("preset      %s at scale %v\n", sp.Preset.Name, sp.Preset.Scale)
		} else {
			fmt.Printf("clients     %d\n", len(sp.Clients))
		}
		fmt.Printf("compiled    |R|=%d |S|=%d window=%dms classes=%v\n",
			len(c.Workload.R), len(c.Workload.S), c.Workload.WindowMs, c.Classes)
		return
	}

	events := c.Events()
	var res ingest.LoadResult
	if *closed {
		res, err = ingest.ClosedLoop(events, *nsPerMs, nil)
	} else {
		res, err = ingest.OpenLoop(events, *nsPerMs, nil)
	}
	if err != nil {
		fatal(err)
	}
	reports := ingest.ClassReports(events, res, c.Classes, planSpanMs(sp, events))

	// Before the journal header: the first pool of the process calibrates
	// the probe-prefetch distance the header records.
	statePool := iawj.NewStatePool()
	var jw *trace.JournalWriter
	var jf *os.File
	if *journal != "" {
		jf, err = os.OpenFile(*journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer jf.Close()
		jw = trace.NewJournalWriter(jf)
		if err := jw.WriteHeader(); err != nil {
			fatal(err)
		}
		for _, rep := range reports {
			if err := jw.Write(ingest.ClassResult(rep)); err != nil {
				fatal(err)
			}
		}
	}

	// The load phase already applied the arrival simulation; the join runs
	// on the collected streams as recorded data.
	r, s := ingest.CollectStreams(events)
	windowMs := c.Workload.WindowMs
	if windowMs <= 0 {
		windowMs = planSpanMs(sp, events)
	}
	cfg := iawj.Config{
		Algorithm: *algorithm,
		Threads:   *threads,
		AtRest:    true,
		Journal:   jw,
		Pool:      statePool,
	}
	results, err := iawj.JoinWindowedParallel(r, s, iawj.WindowSpec{Kind: iawj.Tumbling, LengthMs: windowMs}, cfg, *workers)
	if err != nil {
		fatal(err)
	}

	switch *format {
	case "json":
		printJSON(sp, c, res, reports, results)
	case "text":
		printText(sp, c, res, reports, results)
	default:
		fatal(fmt.Errorf("iawjload: unknown format %q", *format))
	}
}

// planSpanMs is the simulated span the offered rate is measured over:
// the spec's declared duration, falling back to the plan's own extent.
func planSpanMs(sp *workloadspec.Spec, events []ingest.OpenEvent) int64 {
	if sp.DurationMs > 0 {
		return sp.DurationMs
	}
	if sp.WindowMs > 0 {
		return sp.WindowMs
	}
	if n := len(events); n > 0 {
		return events[n-1].DueMs + 1
	}
	return 1
}

func loopName(res ingest.LoadResult) string {
	if res.Closed {
		return "closed"
	}
	return "open"
}

func printText(sp *workloadspec.Spec, c *workloadspec.Compiled, res ingest.LoadResult, reports []ingest.ClassReport, results []iawj.WindowResult) {
	fmt.Printf("spec        %s (seed %d, %s-loop, |R|=%d |S|=%d)\n",
		sp.Name, sp.Seed, loopName(res), len(c.Workload.R), len(c.Workload.S))
	fmt.Printf("%-12s %10s %14s %10s %10s %10s %10s\n",
		"class", "offered", "tuples/ms", "late_p50", "late_p95", "late_p99", "late_max")
	for _, rep := range reports {
		fmt.Printf("%-12s %10d %14.2f %8dms %8dms %8dms %8dms\n",
			rep.Class, rep.Offered, rep.OfferedRate,
			rep.LatenessP50Ms, rep.LatenessP95Ms, rep.LatenessP99Ms, rep.LatenessMaxMs)
	}
	joined := 0
	for _, wr := range results {
		if wr.Result.Algorithm != "" {
			joined++
		}
	}
	fmt.Printf("join        %d/%d windows joined, %d matches\n",
		joined, len(results), iawj.TotalMatches(results))
}

func printJSON(sp *workloadspec.Spec, c *workloadspec.Compiled, res ingest.LoadResult, reports []ingest.ClassReport, results []iawj.WindowResult) {
	type windowSummary struct {
		Window    int    `json:"window"`
		StartMs   int64  `json:"start_ms"`
		EndMs     int64  `json:"end_ms"`
		Algorithm string `json:"algorithm,omitempty"`
		Matches   int64  `json:"matches"`
	}
	out := struct {
		Spec    string               `json:"spec"`
		Seed    uint64               `json:"seed"`
		Loop    string               `json:"loop"`
		Classes []ingest.ClassReport `json:"classes"`
		Windows []windowSummary      `json:"windows"`
		Matches int64                `json:"matches"`
	}{
		Spec:    sp.Name,
		Seed:    sp.Seed,
		Loop:    loopName(res),
		Classes: reports,
		Matches: iawj.TotalMatches(results),
	}
	for i, wr := range results {
		out.Windows = append(out.Windows, windowSummary{
			Window: i, StartMs: wr.Start, EndMs: wr.End,
			Algorithm: wr.Result.Algorithm, Matches: wr.Result.Matches,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
