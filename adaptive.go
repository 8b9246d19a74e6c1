package iawj

// The paper's conclusion names the development of "an adaptive IaWJ
// algorithm that considers all the factors including workload, metrics
// and hardware" as future work (i). This file implements that extension:
// a pseudo-algorithm "ADAPTIVE" that profiles the pending window, walks
// the Figure 4 decision tree, and dispatches to the recommended studied
// algorithm.

import "runtime"

// AdaptiveName selects the self-tuning dispatcher in Config.Algorithm.
const AdaptiveName = "ADAPTIVE"

// adaptiveSample bounds the profiling cost: only a prefix of each stream
// is summarized before dispatch, mirroring how a streaming system would
// profile the first arrivals of a window.
const adaptiveSample = 4096

// adaptiveProfile profiles the inputs, whose timestamps count from
// baseTS, for the decision tree.
func adaptiveProfile(r, s Relation, cfg Config, baseTS int64) Profile {
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	// A prefix of adaptiveSample tuples is profiled on Summarize's own
	// stack: the profile takes nothing from the pool.
	rs := prefix(r, adaptiveSample).Summarize()
	ss := prefix(s, adaptiveSample).Summarize()
	p := Profile{
		Dupe:      min(rs.Dupe, ss.Dupe),
		KeySkew:   max(rs.KeySkew, ss.KeySkew),
		Tuples:    len(r) + len(s),
		Cores:     threads,
		Objective: cfg.Objective,
	}
	if cfg.AtRest {
		p.RateR, p.RateS = RateInfinite, RateInfinite
	} else {
		// Rates estimated over the full relation spans: a prefix of a
		// uniform stream underestimates the span, so derive rates from
		// tuple counts over the window instead.
		window := cfg.WindowMs
		if window <= 0 {
			window = max(r.MaxTS(), s.MaxTS()) - baseTS
		}
		if window < 1 {
			window = 1
		}
		p.RateR = float64(len(r)) / float64(window)
		p.RateS = float64(len(s)) / float64(window)
		if len(r) > 1 && r.MaxTS() <= baseTS {
			p.RateR = RateInfinite
		}
		if len(s) > 1 && s.MaxTS() <= baseTS {
			p.RateS = RateInfinite
		}
	}
	return p
}

func prefix(rel Relation, n int) Relation {
	if len(rel) <= n {
		return rel
	}
	return rel[:n]
}
