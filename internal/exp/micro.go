package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
)

// sweep runs all eight algorithms over a sequence of Micro workloads, one
// per point of the swept parameter, and adds throughput and p95 latency
// per point as rows of sweepCols.
func sweep(o *Options, t *Table, points []float64, build func(p float64) gen.Workload) error {
	for _, p := range points {
		w := build(p)
		param := fmt.Sprintf("%s=%g", t.Cols[1].Head, p)
		for _, name := range algorithms {
			res, err := run(o, w, name, param, core.Knobs{})
			if err != nil {
				return err
			}
			t.add(name, p, res.ThroughputTPM, res.LatencyP95Ms, res.TimeToFrac(0.5))
		}
	}
	return nil
}

// rates is the arrival-rate axis of Figures 9 and 10, tuples/msec.
var rates = []float64{1600, 3200, 6400, 12800, 25600}

// fig9 regenerates the arrival-rate sweep: vR = vS from 1600 to 25600
// tuples/msec, unique keys, uniform arrivals.
func fig9(o *Options, t *Table) error {
	return sweep(o, t, rates, func(p float64) gen.Workload {
		return gen.Micro(gen.MicroConfig{
			RateR: int(p), RateS: int(p), WindowMs: o.MicroWindowMs, Dupe: 1, Seed: o.Seed,
		})
	})
}

// fig10 regenerates the relative-arrival-rate sweep: vR fixed at 1600,
// vS from 1600 to 25600 tuples/msec.
func fig10(o *Options, t *Table) error {
	return sweep(o, t, rates, func(p float64) gen.Workload {
		return gen.Micro(gen.MicroConfig{
			RateR: 1600, RateS: int(p), WindowMs: o.MicroWindowMs, Dupe: 1, Seed: o.Seed,
		})
	})
}

// fig11 regenerates the key-duplication sweep: dupe from 1 to 100 at
// v = 6400 tuples/msec.
func fig11(o *Options, t *Table) error {
	return sweep(o, t, []float64{1, 10, 100}, func(p float64) gen.Workload {
		return gen.Micro(gen.MicroConfig{
			RateR: 6400, RateS: 6400, WindowMs: o.MicroWindowMs, Dupe: int(p), Seed: o.Seed,
		})
	})
}

// fig12 regenerates the arrival-skewness sweep: skew_ts from 0 to 1.6
// at v = 1600 tuples/msec. Only throughput and progressiveness change
// materially (latency stays flat at low rates).
func fig12(o *Options, t *Table) error {
	return sweep(o, t, []float64{0, 0.4, 0.8, 1.2, 1.6}, func(p float64) gen.Workload {
		return gen.Micro(gen.MicroConfig{
			RateR: 1600, RateS: 1600, WindowMs: o.MicroWindowMs, Dupe: 1, TSSkew: p, Seed: o.Seed,
		})
	})
}

// fig13 regenerates the key-skewness sweep: skew_key from 0 to 2.0 at
// v = 12800 tuples/msec. The foreign-key variant of Micro keeps the match
// count constant across skew levels (each S tuple references exactly one
// unique R key), so the sweep isolates access locality — the effect the
// paper attributes to PRJ's partition imbalance and SHJ's cache reuse.
func fig13(o *Options, t *Table) error {
	return sweep(o, t, []float64{0, 0.4, 0.8, 1.2, 1.6, 2.0}, func(p float64) gen.Workload {
		return gen.MicroFK(12800, o.MicroWindowMs, p, o.Seed)
	})
}

// fig14 regenerates the window-length sweep: w from 500 to 2500 ms at
// v = 12800 tuples/msec. The window axis keeps the paper's values scaled
// by MicroWindowMs/1000 so the relative shape is preserved.
func fig14(o *Options, t *Table) error {
	return sweep(o, t, []float64{500, 750, 1000, 1250, 1500}, func(p float64) gen.Workload {
		w := int64(p * float64(o.MicroWindowMs) / 1000)
		if w < 10 {
			w = 10
		}
		return gen.Micro(gen.MicroConfig{
			RateR: 12800, RateS: 12800, WindowMs: w, Dupe: 1, Seed: o.Seed,
		})
	})
}
