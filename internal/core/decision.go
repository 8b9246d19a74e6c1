package core

import (
	"fmt"
	"slices"
)

// This file encodes the decision tree of Figure 4, the study's practical
// takeaway: given workload characteristics, the optimization objective,
// and the core budget, pick the algorithm the evaluation found best.

// Objective is the performance metric the application optimizes for.
type Objective int

// The three metrics of Section 4.1.
const (
	OptThroughput Objective = iota
	OptLatency
	OptProgressiveness
)

func (o Objective) String() string {
	switch o {
	case OptThroughput:
		return "throughput"
	case OptLatency:
		return "latency"
	default:
		return "progressiveness"
	}
}

// Profile describes a workload for the decision tree.
type Profile struct {
	// RateR and RateS are the arrival rates in tuples/ms; use
	// RateInfinite for data at rest.
	RateR, RateS float64
	// Dupe is the average key duplication.
	Dupe float64
	// KeySkew is the Zipf factor of the key distribution.
	KeySkew float64
	// Tuples is the total number of tuples to join in the window.
	Tuples int
	// Cores is the available core count.
	Cores int
	// Objective selects the metric to optimize.
	Objective Objective
}

// RateInfinite marks a static (at rest) input stream.
const RateInfinite = float64(1 << 30)

// Thresholds calibrate the qualitative labels of the tree to a machine.
// The defaults reflect the paper's evaluation platform. The arrival-rate
// levels are relative to the machine's processing rate, as the paper
// notes; the defaults match the Micro sweep where 1600 tuples/ms behaved
// as "low", ~12800 as "medium", and 25600 as "high" on the evaluation box.
type Thresholds struct {
	RateLowMax     float64 // ≤ → low
	RateHighMin    float64 // ≥ → high
	DupeHighMin    float64 // ≥ → high key duplication
	SkewHighMin    float64 // ≥ → high key skewness
	CoresLargeMin  int     // ≥ → large number of cores
	TuplesLargeMin int     // ≥ → large join
}

// DefaultThresholds returns the calibration used throughout the repo.
func DefaultThresholds() Thresholds {
	return Thresholds{
		RateLowMax:     2000,
		RateHighMin:    20000,
		DupeHighMin:    10,
		SkewHighMin:    1.0,
		CoresLargeMin:  8,
		TuplesLargeMin: 1 << 20,
	}
}

// Advice is the decision tree's output.
type Advice struct {
	Algorithm string
	// Path records the decisions taken, root to leaf, for explainability.
	Path []string
}

func (a Advice) String() string {
	return fmt.Sprintf("%s (%v)", a.Algorithm, a.Path)
}

// Advise walks the Figure 4 decision tree.
func Advise(p Profile, th Thresholds) Advice {
	var t trail
	alg := walk(p, th, &t)
	return Advice{Algorithm: alg, Path: slices.Clone(t.steps[:t.n])}
}

// Pick is Advise without the path: the algorithm alone, for a dispatch
// that runs once per window (ADAPTIVE) and allocates nothing.
func Pick(p Profile, th Thresholds) string {
	var t trail
	return walk(p, th, &t)
}

// trail records the decisions of one walk, root to leaf.
type trail struct {
	steps [5]string
	n     int
}

func (t *trail) step(s string) {
	t.steps[t.n] = s
	t.n++
}

// walk walks the tree, recording its decisions in t, and returns the
// algorithm at the leaf.
func walk(p Profile, th Thresholds, t *trail) string {
	minRate := p.RateR
	if p.RateS < minRate {
		minRate = p.RateS
	}
	maxRate := p.RateR
	if p.RateS > maxRate {
		maxRate = p.RateS
	}

	// "We recommend SHJ_JM whenever one input stream has low arrival
	// rate, as it is able to eagerly utilize hardware resources with low
	// overhead."
	if minRate <= th.RateLowMax {
		t.step("arrival rate: at least one is low")
		return "SHJ_JM"
	}

	// Both rates are above low, so the level is high or medium.
	if maxRate >= th.RateHighMin {
		t.step("arrival rate: high")
		return adviseLazy(p, th, t)
	}
	t.step("arrival rate: medium")
	if p.Dupe >= th.DupeHighMin {
		t.step("key duplication: high")
		return "PMJ_JB"
	}
	t.step("key duplication: low")
	if p.Objective == OptThroughput {
		t.step("objective: throughput")
		return adviseLazy(p, th, t)
	}
	// Whole strings, not "objective: " + String(): a concatenation here
	// would allocate on ADAPTIVE's path.
	if p.Objective == OptLatency {
		t.step("objective: latency")
	} else {
		t.step("objective: progressiveness")
	}
	return "SHJ_JM"
}

// adviseLazy resolves the lazy sub-tree: sort-based for high duplication
// (MPass scaling better at large core counts), hash-based otherwise (PRJ
// when skew is low and the join is large, NPJ otherwise). It records its
// decisions in t and returns only the algorithm.
func adviseLazy(p Profile, th Thresholds, t *trail) string {
	if p.Dupe >= th.DupeHighMin {
		t.step("key duplication: high")
		if p.Cores >= th.CoresLargeMin {
			t.step("number of cores: large")
			return "MPASS"
		}
		t.step("number of cores: small")
		return "MWAY"
	}
	t.step("key duplication: low")
	if p.KeySkew < th.SkewHighMin && p.Tuples >= th.TuplesLargeMin {
		t.step("key skewness low and join large")
		return "PRJ"
	}
	t.step("key skewness high or join small")
	return "NPJ"
}
