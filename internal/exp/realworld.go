package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
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

// table3 regenerates the workload-statistics table.
func table3(o *Options, t *Table) error {
	for _, w := range workloads(o) {
		r, s := w.R.Summarize(), w.S.Summarize()
		rate := fmt.Sprintf("vR=%.0f vS=%.0f", r.Rate, s.Rate)
		if w.AtRest {
			rate = "vR=inf vS=inf"
		} else if w.Name == "YSB" {
			rate = fmt.Sprintf("vR=inf vS=%.0f", s.Rate)
		}
		t.add(w.Name, rate, []any{r.Dupe, s.Dupe}, []any{r.KeySkew, s.KeySkew}, []any{len(w.R), len(w.S)})
	}
	return nil
}

// fig3 regenerates the time-distribution plots of Stock and Rovio: the
// tuples of each stream arriving in each tenth of the window.
func fig3(o *Options, t *Table) error {
	const buckets = 10
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
			for _, tp := range side.rel {
				i := tp.TS / bucket
				if int(i) >= buckets {
					i = buckets - 1
				}
				counts[i]++
			}
			t.add(w.Name, side.name, bucket, fmt.Sprint(counts))
		}
	}
	return nil
}

// fig5 regenerates the overall throughput / 95th-latency comparison on
// the four real-world workloads.
func fig5(o *Options, t *Table) error {
	for _, w := range workloads(o) {
		for _, name := range algorithms {
			res, err := run(o, w, name, w.Name, core.Knobs{})
			if err != nil {
				return err
			}
			t.add(w.Name, name, res.ThroughputTPM, res.LatencyP95Ms, res.Matches)
		}
	}
	return nil
}

// fig6 regenerates the progressiveness comparison: time to deliver the
// first 25/50/75/100% of matches, plus an ASCII rendering of each curve
// (cumulative percent of matches over elapsed time, per workload).
func fig6(o *Options, t *Table) error {
	for _, w := range workloads(o) {
		for _, name := range algorithms {
			res, err := run(o, w, name, w.Name, core.Knobs{})
			if err != nil {
				return err
			}
			t.add(w.Name, name, res.TimeToFrac(0.25), res.TimeToFrac(0.50),
				res.TimeToFrac(0.75), res.TimeToFrac(1.0), sparkline(res.Progress[:], 32))
		}
	}
	return nil
}

// fig7 regenerates the execution time breakdown: each phase's share of
// the run's total time, in percent.
func fig7(o *Options, t *Table) error {
	for _, w := range workloads(o) {
		for _, name := range algorithms {
			res, err := run(o, w, name, w.Name, core.Knobs{})
			if err != nil {
				return err
			}
			var total int64
			for _, ns := range res.PhaseNs {
				total += ns
			}
			row := []any{w.Name, name}
			for _, ns := range res.PhaseNs {
				share := 0.0
				if total > 0 {
					share = float64(ns) / float64(total) * 100
				}
				row = append(row, share)
			}
			t.add(row...)
		}
	}
	return nil
}

// fig20 regenerates the multicore scalability study for MPass (lazy)
// and SHJ_JM (eager): throughput at 1, 2, 4 and 8 threads relative to
// one thread.
func fig20(o *Options, t *Table) error {
	threadCounts := []int{1, 2, 4, 8}
	for _, name := range []string{"MPASS", "SHJ_JM"} {
		for _, w := range workloads(o) {
			var normalized []byte
			var base float64
			for i, tc := range threadCounts {
				oo := *o
				oo.Threads = tc
				res, err := run(&oo, w, name, fmt.Sprintf("%s with %d threads", w.Name, tc), core.Knobs{})
				if err != nil {
					return err
				}
				if i == 0 {
					base = res.ThroughputTPM
				}
				if base > 0 {
					normalized = fmt.Appendf(normalized, " %.2f", res.ThroughputTPM/base)
				}
			}
			t.add(name, w.Name, fmt.Sprint(threadCounts), string(normalized))
		}
	}
	return nil
}
