package iawj

import "repro/internal/core"

// Profile describes a workload for the decision tree (Figure 4).
type Profile = core.Profile

// Advice is the decision tree's recommendation plus the path taken.
type Advice = core.Advice

// Thresholds calibrates the tree's qualitative labels to a machine.
type Thresholds = core.Thresholds

// Objective selects the metric an application optimizes.
type Objective = core.Objective

// The three optimization objectives of Section 4.1.
const (
	OptThroughput      = core.OptThroughput
	OptLatency         = core.OptLatency
	OptProgressiveness = core.OptProgressiveness
)

// RateInfinite marks a static (at rest) input stream in a Profile.
const RateInfinite = core.RateInfinite

// Advise walks the paper's decision tree with the default thresholds.
func Advise(p Profile) Advice { return core.Advise(p, core.DefaultThresholds()) }

// AdviseWith walks the tree with custom thresholds.
func AdviseWith(p Profile, th Thresholds) Advice { return core.Advise(p, th) }

// DefaultThresholds returns the calibration used throughout the repo.
func DefaultThresholds() Thresholds { return core.DefaultThresholds() }

// ProfileWorkload derives a decision-tree Profile from a generated
// workload's statistics.
func ProfileWorkload(w Workload, cores int, obj Objective) Profile {
	rs := Summarize(w.R)
	ss := Summarize(w.S)
	// Sort-based algorithms pay off when duplication is high in BOTH
	// streams (Rovio, DEBS in the paper); a single high-dupe side (YSB's
	// ad stream) still favors hash joins, so profile the minimum.
	p := Profile{
		Dupe:      min(rs.Dupe, ss.Dupe),
		KeySkew:   max(rs.KeySkew, ss.KeySkew),
		Tuples:    rs.Tuples + ss.Tuples,
		Cores:     cores,
		Objective: obj,
	}
	if w.AtRest {
		p.RateR, p.RateS = RateInfinite, RateInfinite
	} else {
		p.RateR, p.RateS = rs.Rate, ss.Rate
		// A side whose tuples all carry timestamp zero is itself at
		// rest (e.g. YSB's campaigns table): its arrival rate is
		// infinite, not count-over-1ms.
		if len(w.R) > 1 && w.R.MaxTS() == 0 {
			p.RateR = RateInfinite
		}
		if len(w.S) > 1 && w.S.MaxTS() == 0 {
			p.RateS = RateInfinite
		}
	}
	return p
}
