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

// runBest repeats a static knob run a few times and keeps the cheapest
// execution (smallest non-wait cost): single runs of sub-100ms joins are
// vulnerable to scheduler noise, and the minimum is the standard estimator
// for the noise-free cost.
func runBest(o *Options, w gen.Workload, name, param string, knobs core.Knobs) (metrics.Result, error) {
	var best metrics.Result
	var bestCost int64 = -1
	for rep := 0; rep < 3; rep++ {
		res, err := run(o, w, name, param, knobs)
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

// perTuple is each phase's cost per input tuple and their sum without
// wait.
func perTuple(res metrics.Result) (ns [6]float64, total float64) {
	inputs := float64(res.Inputs)
	for p, phaseNs := range res.PhaseNs {
		if inputs > 0 {
			ns[p] = float64(phaseNs) / inputs
		}
		if metrics.Phase(p) != metrics.PhaseWait {
			total += ns[p]
		}
	}
	return ns, total
}

// knobRow adds the best of three runs of name at one knob setting, the
// point param of the sweep, as a row of knobCols.
func knobRow(o *Options, t *Table, w gen.Workload, name string, param float64, label string, knobs core.Knobs) error {
	res, err := runBest(o, w, name, label, knobs)
	if err != nil {
		return err
	}
	ns, total := perTuple(res)
	t.add(name, param, ns[metrics.PhasePartition], ns[metrics.PhaseBuildSort],
		ns[metrics.PhaseMerge], ns[metrics.PhaseProbe], total)
	return nil
}

// fig15 regenerates the PMJ sorting-step-size sweep: δ from 10% to 50%
// on the static Micro workload, reporting the per-phase cost per tuple.
func fig15(o *Options, t *Table) error {
	w := staticMicro(o, 4, 0)
	for _, delta := range []float64{0.10, 0.20, 0.30, 0.40, 0.50} {
		if err := knobRow(o, t, w, "PMJ_JM", delta, fmt.Sprintf("δ=%.2f", delta), core.Knobs{SortStepFrac: delta}); err != nil {
			return err
		}
	}
	return nil
}

// fig16 regenerates the JB group-size sweep for PMJ and SHJ, with the
// JM scheme as the reference line.
func fig16(o *Options, t *Table) error {
	w := staticMicro(o, 4, 0)
	for _, base := range []string{"PMJ", "SHJ"} {
		for _, g := range []int{1, 2, 4, 8} {
			if g > o.Threads {
				continue
			}
			if err := knobRow(o, t, w, base+"_JB", float64(g), fmt.Sprintf("g=%d", g), core.Knobs{GroupSize: g}); err != nil {
				return err
			}
		}
		// The JM reference line of the figure.
		if err := knobRow(o, t, w, base+"_JM", float64(o.Threads), "the JM reference", core.Knobs{}); err != nil {
			return err
		}
	}
	return nil
}

// fig18 regenerates the PRJ radix-bits sweep: #r from 8 to 18,
// reporting partition and probe cost per tuple.
func fig18(o *Options, t *Table) error {
	w := staticMicro(o, 4, 0)
	for _, bits := range []int{8, 10, 12, 14, 16, 18} {
		if err := knobRow(o, t, w, "PRJ", float64(bits), fmt.Sprintf("#r=%d", bits), core.Knobs{RadixBits: bits}); err != nil {
			return err
		}
	}
	return nil
}

// fig21 regenerates the SIMD impact experiment on the sort-based
// algorithms over the static Micro workload: each on its radix sort — the
// stand-in for the paper's SIMD sort — and on the scalar foil. The speedup
// is the scalar sort+merge cost over the SIMD one, the phases the paper's
// figure charts; only the sort differs here, as there is one merge, and
// the probe is untouched.
func fig21(o *Options, t *Table) error {
	w := staticMicro(o, 16, 0)
	for _, name := range []string{"MWAY", "MPASS", "PMJ_JM", "PMJ_JB"} {
		simd, err := runBest(o, w, name, "the radix sort", core.Knobs{})
		if err != nil {
			return err
		}
		scalar, err := runBest(o, w, name, "the scalar sort", core.Knobs{ScalarSort: true})
		if err != nil {
			return err
		}
		simdNs, scalarNs := sortMergeNs(simd), sortMergeNs(scalar)
		speedup := 0.0
		if simdNs > 0 {
			speedup = scalarNs / simdNs
		}
		t.add(name, simdNs, scalarNs, speedup)
	}
	return nil
}

// sortMergeNs is the SIMD-affected cost of a run per input tuple.
func sortMergeNs(res metrics.Result) float64 {
	ns, _ := perTuple(res)
	return ns[metrics.PhaseBuildSort] + ns[metrics.PhaseMerge]
}
