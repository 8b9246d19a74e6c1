package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/tuple"
)

// workloads builds the four real-world workload equivalents at the
// configured scale.
func workloads(o *Options) []gen.Workload {
	return []gen.Workload{
		gen.Stock(o.Scale, o.Seed),
		gen.Rovio(o.Scale, o.Seed),
		gen.YSB(o.Scale, o.Seed),
		gen.DEBS(o.Scale, o.Seed),
	}
}

// Table3Row summarizes one workload as in the paper's Table 3.
type Table3Row struct {
	Name           string
	StatsR, StatsS tuple.Stats
	AtRest         bool
}

// Table3 regenerates the workload-statistics table.
func Table3(o Options) []Table3Row {
	o.defaults()
	header(&o, "Table 3", "statistics of four real-world workloads (synthesized equivalents)")
	fmt.Fprintf(o.W, "%-6s | %-22s | %-22s | %-22s | %s\n",
		"", "arrival rate (t/ms)", "key duplicates", "key skewness (Zipf)", "number of tuples")
	var rows []Table3Row
	for _, w := range workloads(&o) {
		row := Table3Row{Name: w.Name, StatsR: w.R.Summarize(), StatsS: w.S.Summarize(), AtRest: w.AtRest}
		rows = append(rows, row)
		rate := fmt.Sprintf("vR=%.0f vS=%.0f", row.StatsR.Rate, row.StatsS.Rate)
		if w.AtRest {
			rate = "vR=inf vS=inf"
		} else if w.Name == "YSB" {
			rate = fmt.Sprintf("vR=inf vS=%.0f", row.StatsS.Rate)
		}
		fmt.Fprintf(o.W, "%-6s | %-22s | dupe(R)=%-6.1f dupe(S)=%-6.1f | skew(R)=%.3f skew(S)=%.3f | |R|=%d |S|=%d\n",
			w.Name, rate, row.StatsR.Dupe, row.StatsS.Dupe,
			row.StatsR.KeySkew, row.StatsS.KeySkew, len(w.R), len(w.S))
	}
	return rows
}

// Figure3Series is the per-timestamp arrival histogram of one stream.
type Figure3Series struct {
	Workload string
	Stream   string
	// Counts[i] is the number of tuples arriving in the i-th bucket.
	BucketMs int64
	Counts   []int
}

// Figure3 regenerates the time-distribution plots of Stock and Rovio.
func Figure3(o Options) []Figure3Series {
	o.defaults()
	header(&o, "Figure 3", "time distribution of Stock and Rovio")
	const buckets = 10
	var out []Figure3Series
	for _, w := range []gen.Workload{gen.Stock(o.Scale, o.Seed), gen.Rovio(o.Scale, o.Seed)} {
		for _, side := range []struct {
			name string
			rel  tuple.Relation
		}{{"R", w.R}, {"S", w.S}} {
			span := w.WindowMs
			if span <= 0 {
				span = 1
			}
			bucket := (span + buckets - 1) / buckets
			counts := make([]int, buckets)
			for _, t := range side.rel {
				i := t.TS / bucket
				if int(i) >= buckets {
					i = buckets - 1
				}
				counts[i]++
			}
			out = append(out, Figure3Series{Workload: w.Name, Stream: side.name, BucketMs: bucket, Counts: counts})
			fmt.Fprintf(o.W, "%-6s %s (tuples per %dms): %v\n", w.Name, side.name, bucket, counts)
		}
	}
	return out
}

// Figure5Row is throughput and tail latency of one algorithm on one
// workload.
type Figure5Row struct {
	Workload  string
	Algorithm string
	Result    metrics.Result
}

// Figure5 regenerates the overall throughput / 95th-latency comparison on
// the four real-world workloads.
func Figure5(o Options) []Figure5Row {
	o.defaults()
	header(&o, "Figure 5", "throughput and 95th-percentile latency, 8 algorithms x 4 workloads")
	fmt.Fprintf(o.W, "%-6s %-8s %14s %14s %12s\n", "wkld", "algo", "tput(t/ms)", "p95 lat(ms)", "matches")
	var rows []Figure5Row
	for _, w := range workloads(&o) {
		for _, name := range Algorithms {
			res, err := run(&o, w, name, core.Knobs{})
			if err != nil {
				fmt.Fprintf(o.W, "%-6s %-8s ERROR %v\n", w.Name, name, err)
				continue
			}
			rows = append(rows, Figure5Row{Workload: w.Name, Algorithm: name, Result: res})
			fmt.Fprintf(o.W, "%-6s %-8s %s %14d %12d\n",
				w.Name, name, fmtTPM(res.ThroughputTPM), res.LatencyP95Ms, res.Matches)
		}
	}
	return rows
}

// Figure6Row captures an algorithm's progressiveness on one workload.
type Figure6Row struct {
	Workload  string
	Algorithm string
	// TimeToFrac[f] is the simulated ms by which fraction f of matches
	// had been delivered.
	T25, T50, T75, T100 int64
}

// Figure6 regenerates the progressiveness comparison: time to deliver the
// first 25/50/75/100% of matches, plus an ASCII rendering of each curve
// (cumulative percent of matches over elapsed time, per workload).
func Figure6(o Options) []Figure6Row {
	o.defaults()
	header(&o, "Figure 6", "progressiveness: time (ms) to deliver 25/50/75/100% of matches")
	fmt.Fprintf(o.W, "%-6s %-8s %8s %8s %8s %8s  %s\n", "wkld", "algo", "25%", "50%", "75%", "100%", "curve (time ->)")
	var rows []Figure6Row
	for _, w := range workloads(&o) {
		for _, name := range Algorithms {
			res, err := run(&o, w, name, core.Knobs{})
			if err != nil {
				continue
			}
			row := Figure6Row{
				Workload: w.Name, Algorithm: name,
				T25: res.TimeToFrac(0.25), T50: res.TimeToFrac(0.50),
				T75: res.TimeToFrac(0.75), T100: res.TimeToFrac(1.0),
			}
			rows = append(rows, row)
			fmt.Fprintf(o.W, "%-6s %-8s %8d %8d %8d %8d  |%s|\n",
				w.Name, name, row.T25, row.T50, row.T75, row.T100,
				sparkline(res.Progress[:], 32))
		}
	}
	return rows
}

// Figure7Row is the six-phase execution-time breakdown of one algorithm on
// one workload.
type Figure7Row struct {
	Workload  string
	Algorithm string
	// Frac[p] is the share of total time in phase p.
	Frac [6]float64
	// NsPerTuple[p] is absolute cost per input tuple.
	NsPerTuple [6]float64
}

// Figure7 regenerates the execution time breakdown.
func Figure7(o Options) []Figure7Row {
	o.defaults()
	header(&o, "Figure 7", "execution time breakdown (share of total across phases)")
	fmt.Fprintf(o.W, "%-6s %-8s", "wkld", "algo")
	for _, p := range metrics.Phases() {
		fmt.Fprintf(o.W, " %10s", p)
	}
	fmt.Fprintln(o.W)
	var rows []Figure7Row
	for _, w := range workloads(&o) {
		for _, name := range Algorithms {
			res, err := run(&o, w, name, core.Knobs{})
			if err != nil {
				continue
			}
			row := Figure7Row{Workload: w.Name, Algorithm: name}
			var total int64
			for _, ns := range res.PhaseNs {
				total += ns
			}
			inputs := float64(res.Inputs)
			for p, ns := range res.PhaseNs {
				if total > 0 {
					row.Frac[p] = float64(ns) / float64(total)
				}
				if inputs > 0 {
					row.NsPerTuple[p] = float64(ns) / inputs
				}
			}
			rows = append(rows, row)
			fmt.Fprintf(o.W, "%-6s %-8s", w.Name, name)
			for _, f := range row.Frac {
				fmt.Fprintf(o.W, " %9.1f%%", f*100)
			}
			fmt.Fprintln(o.W)
		}
	}
	return rows
}

// Figure20Row is the thread-scalability of one algorithm on one workload.
type Figure20Row struct {
	Workload   string
	Algorithm  string
	Threads    []int
	Throughput []float64 // tuples per ms at each thread count
	Normalized []float64 // relative to 1 thread
}

// Figure20 regenerates the multicore scalability study for MPass (lazy)
// and SHJ_JM (eager).
func Figure20(o Options) []Figure20Row {
	o.defaults()
	header(&o, "Figure 20", "multicore scalability (normalized throughput)")
	threadCounts := []int{1, 2, 4, 8}
	var rows []Figure20Row
	for _, name := range []string{"MPASS", "SHJ_JM"} {
		for _, w := range workloads(&o) {
			row := Figure20Row{Workload: w.Name, Algorithm: name}
			for _, tc := range threadCounts {
				oo := o
				oo.Threads = tc
				res, err := run(&oo, w, name, core.Knobs{})
				if err != nil {
					continue
				}
				row.Threads = append(row.Threads, tc)
				row.Throughput = append(row.Throughput, res.ThroughputTPM)
			}
			if len(row.Throughput) > 0 && row.Throughput[0] > 0 {
				for _, t := range row.Throughput {
					row.Normalized = append(row.Normalized, t/row.Throughput[0])
				}
			}
			rows = append(rows, row)
			fmt.Fprintf(o.W, "%-8s %-6s threads=%v normalized=", name, w.Name, row.Threads)
			for _, n := range row.Normalized {
				fmt.Fprintf(o.W, " %.2f", n)
			}
			fmt.Fprintln(o.W)
		}
	}
	return rows
}
