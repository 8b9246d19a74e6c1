package exp

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
)

// profileRun executes one algorithm single-threaded with the phase-aware
// cache simulator attached and returns the tracer plus the run result.
// Profile runs shrink the workload further (cache simulation costs ~20x)
// while keeping the relative footprints.
func profileRun(o *Options, w gen.Workload, name string) (*cachesim.Phased, metrics.Result, error) {
	// Shrink the simulated hierarchy with the workload so capacity
	// effects (shared tables exceeding L3, partitions fitting L1) appear
	// at reduced scale; see cachesim.ScaledConfig.
	tr := cachesim.NewPhasedWith(cachesim.ScaledConfig(float64(profileScale(o))))
	res, err := join(name, w.Name+" under the cache simulator", w, core.RunConfig{
		Threads: 1,
		AtRest:  true, // profiling measures access patterns, not arrival
		Tracer:  tr,
	})
	tr.Flush()
	return tr, res, err
}

// profileScale shrinks real-world workloads for simulation-fed runs.
func profileScale(o *Options) gen.Scale {
	sc := o.Scale / 4
	if sc <= 0 {
		sc = 0.005
	}
	return sc
}

// fig8 regenerates the cache-efficiency profiling on YSB: L1/L2/L3
// misses during the partition and probe phases per 1k input tuples, per
// algorithm (simulated cache hierarchy; see DESIGN.md substitutions).
func fig8(o *Options, t *Table) error {
	w := gen.YSB(profileScale(o), o.Seed)
	for _, name := range algorithms {
		tr, res, err := profileRun(o, w, name)
		if err != nil {
			return err
		}
		per := float64(res.Inputs) / 1000
		if per == 0 {
			per = 1
		}
		misses := func(c cachesim.Counters) []any {
			return []any{float64(c.L1Miss) / per, float64(c.L2Miss) / per, float64(c.L3Miss) / per}
		}
		t.add(name, misses(tr.Phase(int(metrics.PhasePartition))), misses(tr.Phase(int(metrics.PhaseProbe))))
	}
	return nil
}

// callsPerTuple models the pull-based function-call pressure of each
// algorithm class for the top-down estimate: eager algorithms repeatedly
// acquire new tuples from the input streams (overloading the out-of-order
// units, Section 5.6); PMJ's repeated acquire/sort cycles are the worst.
func callsPerTuple(name string) float64 {
	switch name {
	case "PMJ_JM", "PMJ_JB":
		return 3.0
	case "SHJ_JM", "SHJ_JB":
		return 2.0
	default:
		return 0.3
	}
}

// fig19a regenerates the micro-architectural (top-down) analysis on
// Rovio using the simulated counters and the documented model.
func fig19a(o *Options, t *Table) error {
	w := gen.Rovio(profileScale(o), o.Seed)
	for _, name := range algorithms {
		tr, res, err := profileRun(o, w, name)
		if err != nil {
			return err
		}
		td := cachesim.Model(tr.Total(), int(res.Inputs), callsPerTuple(name))
		t.add(name, td.Retiring*100, td.CoreBound*100, td.MemoryBound*100,
			td.FrontendBound*100, td.BadSpeculation*100)
	}
	return nil
}

// fig19b regenerates the memory-consumption-over-time comparison on
// Rovio: the peak and up to four samples of the curve.
func fig19b(o *Options, t *Table) error {
	w := gen.Rovio(o.Scale, o.Seed)
	for _, name := range algorithms {
		res, err := run(o, w, name, w.Name, core.Knobs{})
		if err != nil {
			return err
		}
		var samples []byte
		for _, s := range res.MemCurve[:res.MemPoints] {
			samples = fmt.Appendf(samples, " %d:%d", s.Ms, s.Bytes)
		}
		t.add(name, res.MemPeakBytes, string(samples))
	}
	return nil
}

// table5 regenerates the hardware-counters-per-tuple table on Rovio with
// the simulated hierarchy.
func table5(o *Options, t *Table) error {
	w := gen.Rovio(profileScale(o), o.Seed)
	for _, name := range algorithms {
		tr, res, err := profileRun(o, w, name)
		if err != nil {
			return err
		}
		pt := tr.Total().PerTuple(int(res.Inputs))
		t.add(name, pt.L1Miss, pt.L2Miss, pt.L3Miss, pt.TLBMiss, pt.Ops)
	}
	return nil
}

// table6 regenerates the resource-utilization table on Rovio. The memory
// bandwidth is a proxy: simulated L3 miss traffic (64B lines) per
// wall-clock second, as a share of a nominal 10 GB/s budget — the
// documented substitution for Intel PCM.
func table6(o *Options, t *Table) error {
	w := gen.Rovio(o.Scale, o.Seed)
	prof := gen.Rovio(profileScale(o), o.Seed)
	for _, name := range algorithms {
		res, err := run(o, w, name, w.Name, core.Knobs{})
		if err != nil {
			return err
		}
		tr, profRes, err := profileRun(o, prof, name)
		if err != nil {
			return err
		}
		bw := 0.0
		if profRes.WallNs > 0 {
			bytes := float64(tr.Total().L3Miss) * 64
			bw = bytes / (float64(profRes.WallNs) / 1e9) / 10e9 * 100
			if bw > 100 {
				bw = 100
			}
		}
		t.add(name, res.CPUUtil*100, bw)
	}
	return nil
}
