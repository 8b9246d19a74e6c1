package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// manifestMetric is one entry of a metric list of BENCHMARK.json; a
// per-layer entry has no bound.
type manifestMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// manifest is the part of BENCHMARK.json the harness reads back: the A/A
// check for how far each end-to-end metric may worsen (every metric of
// this benchmark is better lower), the tests for every name.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var man manifest
	buf, err := os.ReadFile(path)
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(buf, &man); err != nil {
		return man, fmt.Errorf("%s: %w", path, err)
	}
	return man, nil
}

// aaCell is what the A/A check saw of one metric of one workload.
type aaCell struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Unit     string     `json:"unit"`
	Median   [2]float64 `json:"median"`
	Q1       [2]float64 `json:"q1"`
	Q3       [2]float64 `json:"q3"`
	// Spread is each set's interquartile distance as a share of its median.
	Spread [2]float64 `json:"spread"`
	// Gap is how much worse the second set's median is than the first's,
	// as a share of the first; negative when it is better.
	Gap float64 `json:"gap"`
	// Bound is the metric's bound in BENCHMARK.json, 0 for a time metric
	// the untraced run measures and BENCHMARK.json does not bound.
	Bound float64 `json:"bound"`
	// Verdict is PASS or FAIL for a bounded metric, "not gated" otherwise.
	Verdict string `json:"verdict"`
}

// stability runs, per workload, two interleaved sets of opt.aa complete
// untraced runs of this binary, run i of either set with seed opt.seed+i,
// and holds every end-to-end metric to its bound in BENCHMARK.json: each
// set's spread must stay within it — except set-up time's, which has one
// sample a run — and the second median may not be worse than the first by
// more than it. The time metrics the runs measure besides are listed with
// their spreads: that is the record of why they are not bounded. The table
// goes to standard error and benchmark/STABILITY.json; a failing cell
// makes the command fail.
func stability(names []string, opt options) error {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range man.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	measured := endToEndDefs()
	measured = append(measured, perColumn("finish_ms", "ms", columns)...)
	measured = append(measured, perColumn("lat_p95_ms", "ms", columns[eagerLo:eagerHi])...)
	var cells []aaCell
	for _, name := range names {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = map[string][]float64{}
		}
		for run := 0; run < opt.aa; run++ {
			for set := range sets {
				cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(opt.seed+uint64(run), 10),
					"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-scale", opt.scale)
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s run %d of set %d: %w\n%s", name, run, set, err, stderr.Bytes())
				}
				// The run's report file has what its standard output has and
				// the metrics that are not bounded besides.
				var rep report
				buf, err := os.ReadFile(filepath.Join(outDir, "report-"+name+"-untraced.json"))
				if err == nil {
					err = json.Unmarshal(buf, &rep)
				}
				if err != nil {
					return fmt.Errorf("%s run %d of set %d: %w", name, run, set, err)
				}
				for metric, v := range rep.Metrics {
					sets[set][metric] = append(sets[set][metric], v.Value)
				}
				fmt.Fprintf(os.Stderr, "%s: set %c run %d done\n", name, 'A'+set, run+1)
			}
		}
		for _, m := range measured {
			if len(sets[0][m.name]) == 0 {
				continue // lat_p95_ms at rest
			}
			c := aaCell{Workload: name, Metric: m.name, Unit: m.unit, Bound: bounds[m.name], Verdict: "not gated"}
			for set := range sets {
				xs := sets[set][m.name]
				c.Median[set] = median(xs)
				c.Q1[set], c.Q3[set] = quartiles(xs)
				c.Spread[set] = spread(xs)
			}
			c.Gap = c.Median[1]/c.Median[0] - 1 // every metric here is better lower
			if c.Bound > 0 {
				steady := m.name == "setup_s" || c.Spread[0] <= c.Bound && c.Spread[1] <= c.Bound
				c.Verdict = "FAIL"
				if steady && c.Gap <= c.Bound {
					c.Verdict = "PASS"
				}
			}
			cells = append(cells, c)
		}
	}

	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tspread A\tspread B\tgap\tbound\t\t")
	failed := 0
	for _, c := range cells {
		if c.Verdict == "FAIL" {
			failed++
		}
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.4f\t%.4f\t%+.4f\t%.2f\t%s\t\n",
			c.Workload, c.Metric, c.Median[0], c.Median[1], c.Spread[0], c.Spread[1], c.Gap, c.Bound, c.Verdict)
	}
	tw.Flush()
	doc := struct {
		Runs  int         `json:"runs_per_set"`
		Seed  uint64      `json:"first_seed"`
		Env   environment `json:"env"`
		Cells []aaCell    `json:"cells"`
	}{opt.aa, opt.seed, stampEnvironment(), cells}
	buf, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("benchmark/STABILITY.json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d cells outside their bound", failed)
	}
	return nil
}
