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
//
// With -journal the run appends per-class "openloop/<class>" run records
// plus the per-window ledger (iawj-journal/v2), so two load runs diff
// with cmd/iawjinspect; -format json prints the same records on stdout.
// -closed runs the closed-loop foil instead, for measuring the
// coordinated-omission gap on one plan (see WORKLOADS.md). To check a
// spec without running it, hand the file to cmd/iawjinspect.
package main

import (
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
	if *format != "text" && *format != "json" {
		fatal(fmt.Errorf("iawjload: unknown format %q", *format))
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

	obs := &trace.Session{JournalPath: *journal, Stdout: *format == "json", WantPool: true}
	if err := obs.Start(); err != nil {
		fatal(err)
	}
	for _, rep := range reports {
		if err := obs.Journal.Write(ingest.ClassResult(rep)); err != nil {
			fatal(err)
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
		Journal:   obs.Journal,
		Pool:      obs.Pool,
	}
	results, err := iawj.JoinWindowedParallel(r, s, iawj.WindowSpec{Kind: iawj.Tumbling, LengthMs: windowMs}, cfg, *workers)
	if err != nil {
		fatal(err)
	}
	if err := obs.Close(); err != nil {
		fatal(err)
	}

	if *format == "text" {
		printText(sp, c, res, reports, results)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
