// Package lazy implements the four relational join algorithms the study
// applies as lazy intra-window joins (Section 3.1): NPJ, PRJ, MWay, and
// MPass.
//
// A lazy algorithm waits until the last tuple of the concerned window has
// arrived (the wait phase), then runs a parallel relational join over the
// buffered inputs. The implementations mirror the structure of the
// Balkesen et al. benchmark the paper builds on.
package lazy

import (
	"sync"

	"repro/internal/core"
	"repro/internal/tuple"
)

// matchBatch aliases the shared clock-sampling batch size.
const matchBatch = core.MatchBatch

// matchPairs feeds the (stored, probe) pairs of one probe batch to the
// sink. The slice-advance walk is bounds-check free where a stride-2 index
// walk is not (LINTING.md §BCE).
//
//iawj:hotpath
func matchPairs(k *core.Sink, pairs []tuple.Tuple) {
	for ps := pairs; len(ps) >= 2; ps = ps[2:] {
		k.Match(ps[0], ps[1])
	}
}

// parallel runs fn on threads worker goroutines and waits for all.
func parallel(threads int, fn func(tid int)) {
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer wg.Done()
			fn(tid)
		}(t)
	}
	wg.Wait()
}
