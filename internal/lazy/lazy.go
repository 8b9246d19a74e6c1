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
)

// matchBatch aliases the shared clock-sampling batch size.
const matchBatch = core.MatchBatch

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
