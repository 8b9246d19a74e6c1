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
func profileRun(o *Options, w gen.Workload, name string, knobs core.Knobs) (*cachesim.Phased, metrics.Result, error) {
	// Shrink the simulated hierarchy with the workload so capacity
	// effects (shared tables exceeding L3, partitions fitting L1) appear
	// at reduced scale; see cachesim.ScaledConfig.
	tr := cachesim.NewPhasedWith(cachesim.ScaledConfig(float64(profileScale(o))))
	res, err := core.Run(mustAlg(name), w.R, w.S, w.WindowMs, core.RunConfig{
		Threads: 1,
		AtRest:  true, // profiling measures access patterns, not arrival
		Knobs:   knobs,
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

// Figure8Row is the per-phase cache-miss profile of one algorithm.
type Figure8Row struct {
	Algorithm string
	Partition cachesim.Counters
	Probe     cachesim.Counters
}

// Figure8 regenerates the cache-efficiency profiling on YSB: L1/L2/L3
// misses during the partition and probe phases, per algorithm
// (simulated cache hierarchy; see DESIGN.md substitutions).
func Figure8(o Options) []Figure8Row {
	o.defaults()
	header(&o, "Figure 8", "cache efficiency profiling on YSB (simulated misses per 1k tuples)")
	fmt.Fprintf(o.W, "%-8s | %-30s | %-30s\n", "algo", "partition L1/L2/L3", "probe L1/L2/L3")
	w := gen.YSB(profileScale(&o), o.Seed)
	var rows []Figure8Row
	for _, name := range Algorithms {
		tr, res, err := profileRun(&o, w, name, core.Knobs{})
		if err != nil {
			continue
		}
		row := Figure8Row{
			Algorithm: name,
			Partition: tr.Phase(int(metrics.PhasePartition)),
			Probe:     tr.Phase(int(metrics.PhaseProbe)),
		}
		rows = append(rows, row)
		per := float64(res.Inputs) / 1000
		if per == 0 {
			per = 1
		}
		fmt.Fprintf(o.W, "%-8s | %8.1f %8.1f %8.1f | %8.1f %8.1f %8.1f\n", name,
			float64(row.Partition.L1Miss)/per, float64(row.Partition.L2Miss)/per, float64(row.Partition.L3Miss)/per,
			float64(row.Probe.L1Miss)/per, float64(row.Probe.L2Miss)/per, float64(row.Probe.L3Miss)/per)
	}
	return rows
}

// Figure19aRow is the modeled top-down breakdown of one algorithm.
type Figure19aRow struct {
	Algorithm string
	TopDown   cachesim.TopDown
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

// Figure19a regenerates the micro-architectural (top-down) analysis on
// Rovio using the simulated counters and the documented model.
func Figure19a(o Options) []Figure19aRow {
	o.defaults()
	header(&o, "Figure 19a", "modeled top-down breakdown on Rovio")
	fmt.Fprintf(o.W, "%-8s %9s %9s %9s %9s %9s\n",
		"algo", "retiring", "core", "memory", "frontend", "badspec")
	w := gen.Rovio(profileScale(&o), o.Seed)
	var rows []Figure19aRow
	for _, name := range Algorithms {
		tr, res, err := profileRun(&o, w, name, core.Knobs{})
		if err != nil {
			continue
		}
		td := cachesim.Model(tr.Total(), int(res.Inputs), callsPerTuple(name))
		rows = append(rows, Figure19aRow{Algorithm: name, TopDown: td})
		fmt.Fprintf(o.W, "%-8s %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n", name,
			td.Retiring*100, td.CoreBound*100, td.MemoryBound*100,
			td.FrontendBound*100, td.BadSpeculation*100)
	}
	return rows
}

// Figure19bRow is the memory-consumption profile of one algorithm.
type Figure19bRow struct {
	Algorithm string
	PeakBytes int64
	Curve     []metrics.MemSample
}

// Figure19b regenerates the memory-consumption-over-time comparison on
// Rovio.
func Figure19b(o Options) []Figure19bRow {
	o.defaults()
	header(&o, "Figure 19b", "memory consumption on Rovio (logical bytes)")
	fmt.Fprintf(o.W, "%-8s %14s %s\n", "algo", "peak", "samples(ms:bytes)")
	w := gen.Rovio(o.Scale, o.Seed)
	var rows []Figure19bRow
	for _, name := range Algorithms {
		res, err := run(&o, w, name, core.Knobs{})
		if err != nil {
			continue
		}
		row := Figure19bRow{Algorithm: name, PeakBytes: res.MemPeakBytes, Curve: res.MemCurve}
		rows = append(rows, row)
		fmt.Fprintf(o.W, "%-8s %14d ", name, row.PeakBytes)
		step := len(row.Curve)/4 + 1
		for i := 0; i < len(row.Curve); i += step {
			s := row.Curve[i]
			fmt.Fprintf(o.W, " %d:%d", s.Ms, s.Bytes)
		}
		fmt.Fprintln(o.W)
	}
	return rows
}

// Table5Row is the simulated counters-per-input-tuple of one algorithm.
type Table5Row struct {
	Algorithm string
	PerTuple  cachesim.PerTupleCounters
}

// Table5 regenerates the hardware-counters-per-tuple table on Rovio with
// the simulated hierarchy.
func Table5(o Options) []Table5Row {
	o.defaults()
	header(&o, "Table 5", "simulated counters per input tuple (Rovio)")
	fmt.Fprintf(o.W, "%-8s %12s %12s %12s %12s %12s\n", "algo", "L1D miss", "L2 miss", "L3 miss", "TLBD miss", "ops")
	w := gen.Rovio(profileScale(&o), o.Seed)
	var rows []Table5Row
	for _, name := range Algorithms {
		tr, res, err := profileRun(&o, w, name, core.Knobs{})
		if err != nil {
			continue
		}
		pt := tr.Total().PerTuple(int(res.Inputs))
		rows = append(rows, Table5Row{Algorithm: name, PerTuple: pt})
		fmt.Fprintf(o.W, "%-8s %12.3f %12.3f %12.3f %12.3f %12.1f\n",
			name, pt.L1Miss, pt.L2Miss, pt.L3Miss, pt.TLBMiss, pt.Ops)
	}
	return rows
}

// Table6Row is the resource utilization of one algorithm.
type Table6Row struct {
	Algorithm string
	CPUUtil   float64
	// MemBWProxy approximates memory-bandwidth pressure: simulated L3
	// miss traffic (64B lines) per wall-clock second, as a share of a
	// nominal 10 GB/s budget. Documented substitution for Intel PCM.
	MemBWProxy float64
}

// Table6 regenerates the resource-utilization table on Rovio.
func Table6(o Options) []Table6Row {
	o.defaults()
	header(&o, "Table 6", "resource utilization on Rovio")
	fmt.Fprintf(o.W, "%-8s %10s %12s\n", "algo", "cpu(%)", "mem.bw(%)")
	w := gen.Rovio(o.Scale, o.Seed)
	prof := gen.Rovio(profileScale(&o), o.Seed)
	var rows []Table6Row
	for _, name := range Algorithms {
		res, err := run(&o, w, name, core.Knobs{})
		if err != nil {
			continue
		}
		tr, profRes, err := profileRun(&o, prof, name, core.Knobs{})
		bw := 0.0
		if err == nil && profRes.WallNs > 0 {
			bytes := float64(tr.Total().L3Miss) * 64
			bw = bytes / (float64(profRes.WallNs) / 1e9) / 10e9 * 100
			if bw > 100 {
				bw = 100
			}
		}
		row := Table6Row{Algorithm: name, CPUUtil: res.CPUUtil * 100, MemBWProxy: bw}
		rows = append(rows, row)
		fmt.Fprintf(o.W, "%-8s %9.1f%% %11.2f%%\n", name, row.CPUUtil, row.MemBWProxy)
	}
	return rows
}
