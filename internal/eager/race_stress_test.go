package eager

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/tuple"
)

// TestEagerConcurrencyStress hammers SHJ and PMJ under both distribution
// schemes with streaming (arrival-gated) inputs across GOMAXPROCS worker
// goroutines, each pulling concurrently from the left and right streams
// while an Emit consumer counts materialized results in a plain variable:
// Emit is never entered concurrently, so it needs no lock, and a second
// goroutine inside it would be a -race report. Repeated iterations must
// produce the exact same result cardinality — any data race on the
// per-worker tables, the run store, the outbox or the shared metrics
// collector shows up either as a -race report or as cardinality drift.
//
// Run via `make race` (go test -race ./...) for the real guarantee; the
// plain-test run still checks cardinality stability.
func TestEagerConcurrencyStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	// At least 4 workers even on small machines: goroutine interleaving
	// (and the race detector) still exercises cross-worker conflicts when
	// cores are scarce.
	threads := runtime.GOMAXPROCS(0)
	if threads < 4 {
		threads = 4
	}
	w := gen.Micro(gen.MicroConfig{
		RateR:    8,
		RateS:    8,
		WindowMs: 400,
		Dupe:     4,
		KeySkew:  0.4,
		Seed:     99,
	})
	want := expected(w.R, w.S)
	const iters = 10

	algs := []core.Algorithm{
		SHJ{}, SHJ{JB: true},
		PMJ{}, PMJ{JB: true},
	}
	for _, alg := range algs {
		t.Run(alg.Name(), func(t *testing.T) {
			for _, g := range []int{1, 2} {
				if g > threads {
					continue
				}
				t.Run(fmt.Sprintf("g=%d", g), func(t *testing.T) {
					for i := 0; i < iters; i++ {
						var emitted int64
						res, err := core.Run(alg, w.R, w.S, w.WindowMs, core.RunConfig{
							Threads: threads,
							// Compress hard so 10 iterations of a 400ms
							// window stay fast while still exercising
							// arrival gating and worker stalls.
							NsPerSimMs: 5e3,
							Knobs:      core.Knobs{GroupSize: g},
							Emit: func(tuple.JoinResult) {
								emitted++
							},
						})
						if err != nil {
							t.Fatalf("iteration %d: %v", i, err)
						}
						if res.Matches != want {
							t.Fatalf("iteration %d: matches = %d, want %d (cardinality drift)", i, res.Matches, want)
						}
						if emitted != want {
							t.Fatalf("iteration %d: emitted = %d, want %d (emit path drift)", i, emitted, want)
						}
					}
				})
			}
		})
	}
}
