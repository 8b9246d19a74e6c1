// Command benchmark is the repeatable end-to-end and per-layer benchmark of
// the eight intra-window joins; README.md in this directory says what it
// measures and why. It is run through run.sh:
//
//	bash benchmark/run.sh -seed 42                        every workload, untraced
//	bash benchmark/run.sh -workload rest_dup -trace 1     one workload's per-layer metrics
//	bash benchmark/run.sh -aa 10                          the A/A stability check
//
// Standard output carries one JSON object and nothing else; the table for
// a human goes to standard error and the full report to benchmark/out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/clock"
)

// proc is the one clock of the harness, started with the process; every
// time it takes is a distance on it.
var proc = clock.StartStopwatch()

// outDir is where reports and span dumps go; git ignores it.
const outDir = "benchmark/out"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    string
	aa       int
	out      string // outDir, or a test's own directory
}

// report is everything one run of one workload recorded.
type report struct {
	Workload string      `json:"workload"`
	Traced   bool        `json:"traced"`
	Scale    string      `json:"scale"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Rounds   int         `json:"rounds"`
	Env      environment `json:"env"`
	Inputs   struct {
		R              int     `json:"r_tuples"`
		S              int     `json:"s_tuples"`
		Matches        int64   `json:"matches"`
		Windows        int     `json:"windows"`
		WireBytes      int     `json:"wire_bytes"`
		Threads        int     `json:"threads"`
		PaceNsPerSimMs float64 `json:"pace_ns_per_sim_ms"`
	} `json:"inputs"`
	Ops         int                  `json:"ops"`
	FailedOps   int                  `json:"failed_ops"`
	MinSampleMs float64              `json:"min_sample_ms"`
	CalibMs     [2]float64           `json:"calib_ms"`
	Metrics     map[string]value     `json:"metrics"`
	Samples     map[string][]float64 `json:"samples"`
}

// runWorkload sets one workload up, measures it and returns the summary.
// startNs is when its set-up began: process start for the first.
func runWorkload(name string, opt options, startNs int64) (result, error) {
	tiny := opt.scale == "tiny"
	w, err := generate(name, tiny, opt.seed)
	if err != nil {
		return result{}, err
	}
	poolNs, err := w.setUp()
	if err != nil {
		return result{}, err
	}
	setupS := float64(proc.ElapsedNs()-startNs) / 1e9

	calibBytes := 64 << 20
	if tiny {
		calibBytes = 1 << 20
	}
	rep := report{Workload: name, Traced: opt.trace == 1, Scale: opt.scale, Seed: opt.seed, Seconds: opt.seconds, Env: stampEnvironment()}
	rep.CalibMs[0] = calibrate(calibBytes)

	b, s := newBench(w), newSeries()
	budgetNs := int64(opt.seconds * 1e9)
	defs := endToEndDefs()
	if rep.Traced {
		defs = perLayerDefs()
		units := int64(1 << 20)
		if tiny {
			units = 1 << 15
		}
		l := &layers{b: b, s: s, log: &spanLog{workload: name}, budget: units}
		s.add("pool.calibrate_ms", "ms", float64(poolNs)/1e6)
		s.add("harness.calib_ms.start", "ms", rep.CalibMs[0])
		if rep.Rounds, err = l.run(budgetNs); err != nil {
			return result{}, err
		}
		if err := l.log.write(filepath.Join(opt.out, "spans-"+name+".json")); err != nil {
			return result{}, err
		}
	} else {
		s.add("setup_s", "s", setupS)
		rep.Rounds = b.endToEnd(s, budgetNs)
	}
	rep.CalibMs[1] = calibrate(calibBytes)
	if drift := rep.CalibMs[1]/rep.CalibMs[0] - 1; drift > 0.10 || drift < -0.10 {
		fmt.Fprintf(os.Stderr, "WARNING %s: calibration loop took %.1f ms before and %.1f ms after: the host drifted\n", name, rep.CalibMs[0], rep.CalibMs[1])
	}
	if rep.Traced {
		s.add("harness.calib_ms.end", "ms", rep.CalibMs[1])
		s.add("harness.traced_run_s", "s", float64(proc.ElapsedNs()-startNs)/1e9)
	}

	rep.Inputs.R, rep.Inputs.S, rep.Inputs.Matches = len(w.r), len(w.s), w.ref.Full.Count
	rep.Inputs.Windows, rep.Inputs.WireBytes = w.windows, len(w.wire[0])+len(w.wire[1])
	rep.Inputs.Threads, rep.Inputs.PaceNsPerSimMs = threads, w.paceNs
	rep.Ops, rep.FailedOps, rep.MinSampleMs = b.attempted, b.failed, float64(b.minSampleNs)/1e6
	rep.Samples = s.samples
	if !tiny && rep.MinSampleMs < 40 {
		fmt.Fprintf(os.Stderr, "WARNING %s: shortest timed sample lasted %.1f ms, under the 40 ms floor\n", name, rep.MinSampleMs)
	}

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	if res.Metrics, err = s.selectDefs(defs); err != nil && res.Correct {
		return result{}, err
	}
	rep.Metrics = s.all()
	fmt.Fprintf(os.Stderr, "\n%s  seed %d  %d rounds  ops %d  failed_ops %d  min sample %.1f ms  calib %.1f/%.1f ms\n",
		name, opt.seed, rep.Rounds, rep.Ops, rep.FailedOps, rep.MinSampleMs, rep.CalibMs[0], rep.CalibMs[1])
	s.table(os.Stderr)
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	buf, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return result{}, err
	}
	return res, os.WriteFile(filepath.Join(opt.out, "report-"+name+"-"+mode+".json"), buf, 0o644)
}

func main() {
	opt := options{out: outDir}
	flag.StringVar(&opt.workload, "workload", "", "workload to run (default: all four)")
	flag.Uint64Var(&opt.seed, "seed", 42, "seed the inputs are generated from")
	flag.Float64Var(&opt.seconds, "seconds", 22, "how long one workload measures: rounds are added while the next still fits")
	flag.IntVar(&opt.trace, "trace", 0, "1 makes the traced run that reports the per-layer metrics")
	flag.StringVar(&opt.scale, "scale", "full", "input sizes: full, or tiny for the tests")
	flag.IntVar(&opt.aa, "aa", 0, "A/A check: two interleaved sets of this many untraced runs per workload")
	flag.Parse()
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	if opt.scale != "full" && opt.scale != "tiny" || opt.trace < 0 || opt.trace > 1 || flag.NArg() > 0 {
		return fmt.Errorf("bad arguments; see -help")
	}
	names := workloadNames
	if opt.workload != "" {
		names = []string{opt.workload}
	}
	if opt.aa > 0 {
		return stability(names, opt)
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	results := make(map[string]result, len(names))
	failed := false
	for i, name := range names {
		startNs := int64(0)
		if i > 0 {
			startNs = proc.ElapsedNs()
		}
		res, err := runWorkload(name, opt, startNs)
		if err != nil {
			return err
		}
		results[name] = res
		failed = failed || !res.Correct
	}
	// One workload prints its summary bare, as the benchmark contract has
	// it; several print one object keyed by workload.
	var doc any = results
	if opt.workload != "" {
		doc = results[opt.workload]
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	if failed {
		return fmt.Errorf("failed operations; see above")
	}
	return nil
}
