package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
)

// staticMicro builds the Section 5.5 configuration: all tuples instantly
// available, sized relative to the paper's 128k-tuple relations by the
// scale option (default scale reproduces 128k per stream).
func staticMicro(o *Options, dupe int, keySkew float64) gen.Workload {
	n := int(float64(128_000) * float64(o.Scale) / 0.02)
	if n < 1000 {
		n = 1000
	}
	return gen.MicroStatic(n, n, dupe, keySkew, o.Seed)
}

// KnobRow is one point of an algorithm-configuration experiment.
type KnobRow struct {
	Algorithm string
	Param     float64
	// NsPerTuple is per-phase cost per input tuple
	// (wait/partition/build-sort/merge/probe/other).
	NsPerTuple [6]float64
	// TotalNsPerTuple excludes wait.
	TotalNsPerTuple float64
	Result          metrics.Result
}

// runBest repeats a static knob run a few times and keeps the cheapest
// execution (smallest non-wait cost): single runs of sub-100ms joins are
// vulnerable to scheduler noise, and the minimum is the standard estimator
// for the noise-free cost.
func runBest(o *Options, w gen.Workload, name string, knobs core.Knobs) (metrics.Result, error) {
	var best metrics.Result
	var bestCost int64 = -1
	for rep := 0; rep < 3; rep++ {
		res, err := run(o, w, name, knobs)
		if err != nil {
			return res, err
		}
		var cost int64
		for p, ns := range res.PhaseNs {
			if metrics.Phase(p) != metrics.PhaseWait {
				cost += ns
			}
		}
		if bestCost < 0 || cost < bestCost {
			best, bestCost = res, cost
		}
	}
	return best, nil
}

func knobRow(name string, param float64, res metrics.Result) KnobRow {
	row := KnobRow{Algorithm: name, Param: param, Result: res}
	inputs := float64(res.Inputs)
	for p, ns := range res.PhaseNs {
		if inputs > 0 {
			row.NsPerTuple[p] = float64(ns) / inputs
		}
		if metrics.Phase(p) != metrics.PhaseWait {
			row.TotalNsPerTuple += row.NsPerTuple[p]
		}
	}
	return row
}

func printKnobHeader(o *Options) {
	fmt.Fprintf(o.W, "%-8s %8s %10s %10s %10s %10s %10s\n",
		"algo", "param", "partition", "sort", "merge", "probe", "total")
}

func printKnobRow(o *Options, row KnobRow) {
	fmt.Fprintf(o.W, "%-8s %8.2f %10.1f %10.1f %10.1f %10.1f %10.1f\n",
		row.Algorithm, row.Param,
		row.NsPerTuple[metrics.PhasePartition],
		row.NsPerTuple[metrics.PhaseBuildSort],
		row.NsPerTuple[metrics.PhaseMerge],
		row.NsPerTuple[metrics.PhaseProbe],
		row.TotalNsPerTuple)
}

// Figure15 regenerates the PMJ sorting-step-size sweep: δ from 10% to 50%
// on the static Micro workload, reporting the per-phase cost per tuple.
func Figure15(o Options) []KnobRow {
	o.defaults()
	header(&o, "Figure 15", "impact of sorting step size (δ) of PMJ (ns per input tuple)")
	printKnobHeader(&o)
	w := staticMicro(&o, 4, 0)
	var rows []KnobRow
	for _, delta := range []float64{0.10, 0.20, 0.30, 0.40, 0.50} {
		res, err := runBest(&o, w, "PMJ_JM", core.Knobs{SortStepFrac: delta})
		if err != nil {
			continue
		}
		row := knobRow("PMJ_JM", delta, res)
		rows = append(rows, row)
		printKnobRow(&o, row)
	}
	return rows
}

// Figure16 regenerates the JB group-size sweep for PMJ and SHJ, with the
// JM scheme as the reference line.
func Figure16(o Options) []KnobRow {
	o.defaults()
	header(&o, "Figure 16", "impact of group size (g) of the JB scheme (ns per input tuple)")
	printKnobHeader(&o)
	w := staticMicro(&o, 4, 0)
	var rows []KnobRow
	groupSizes := []int{1, 2, 4, 8}
	for _, base := range []string{"PMJ", "SHJ"} {
		for _, g := range groupSizes {
			if g > o.Threads {
				continue
			}
			res, err := runBest(&o, w, base+"_JB", core.Knobs{GroupSize: g})
			if err != nil {
				continue
			}
			row := knobRow(base+"_JB", float64(g), res)
			rows = append(rows, row)
			printKnobRow(&o, row)
		}
		// The JM reference line of the figure.
		res, err := runBest(&o, w, base+"_JM", core.Knobs{})
		if err == nil {
			row := knobRow(base+"_JM", float64(o.Threads), res)
			rows = append(rows, row)
			printKnobRow(&o, row)
		}
	}
	return rows
}

// Figure18 regenerates the PRJ radix-bits sweep: #r from 8 to 18,
// reporting partition and probe cost per tuple.
func Figure18(o Options) []KnobRow {
	o.defaults()
	header(&o, "Figure 18", "impact of number of radix bits (#r) of PRJ (ns per input tuple)")
	printKnobHeader(&o)
	w := staticMicro(&o, 4, 0)
	var rows []KnobRow
	for _, bits := range []int{8, 10, 12, 14, 16, 18} {
		res, err := runBest(&o, w, "PRJ", core.Knobs{RadixBits: bits})
		if err != nil {
			continue
		}
		row := knobRow("PRJ", float64(bits), res)
		rows = append(rows, row)
		printKnobRow(&o, row)
	}
	return rows
}

// Figure21Row compares one sort-based algorithm on its radix sort — the
// stand-in for the paper's SIMD sort — and on the scalar foil.
type Figure21Row struct {
	Algorithm string
	SIMD      KnobRow
	Scalar    KnobRow
	// Speedup is the scalar sort+merge cost over the SIMD sort+merge
	// cost — the phases the paper's figure charts; only the sort differs
	// here, as there is one merge, and the probe is untouched.
	Speedup float64
}

// sortMergeNs extracts the SIMD-affected cost of a row.
func sortMergeNs(r KnobRow) float64 {
	return r.NsPerTuple[metrics.PhaseBuildSort] + r.NsPerTuple[metrics.PhaseMerge]
}

// Figure21 regenerates the SIMD impact experiment on the sort-based
// algorithms over the static Micro workload.
func Figure21(o Options) []Figure21Row {
	o.defaults()
	header(&o, "Figure 21", "impact of SIMD on sort-based algorithms (ns per input tuple)")
	fmt.Fprintf(o.W, "%-10s %12s %12s %8s\n", "algo", "simd s+m", "scalar s+m", "speedup")
	w := staticMicro(&o, 16, 0)
	var rows []Figure21Row
	for _, name := range []string{"MWAY", "MPASS", "PMJ_JM", "PMJ_JB"} {
		simdRes, err1 := runBest(&o, w, name, core.Knobs{})
		scalarRes, err2 := runBest(&o, w, name, core.Knobs{ScalarSort: true})
		if err1 != nil || err2 != nil {
			continue
		}
		row := Figure21Row{
			Algorithm: name,
			SIMD:      knobRow(name, 1, simdRes),
			Scalar:    knobRow(name, 0, scalarRes),
		}
		if sm := sortMergeNs(row.SIMD); sm > 0 {
			row.Speedup = sortMergeNs(row.Scalar) / sm
		}
		rows = append(rows, row)
		fmt.Fprintf(o.W, "%-10s %12.1f %12.1f %7.2fx\n",
			name, sortMergeNs(row.SIMD), sortMergeNs(row.Scalar), row.Speedup)
	}
	return rows
}
