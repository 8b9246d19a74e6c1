//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package eager

import (
	"testing"
	"testing/synctest"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/tuple"
)

// TestBubbleHandshakeAndPacedJoin runs Handshake.Run and a paced eager
// join, each with a counting Emit, inside a synctest bubble (TESTING.md,
// "Bubbles"): a handshake cell or eager worker left blocked fails the
// bubble as a deadlock, and one left running shows up as a result
// delivered after core.Run returned.
func TestBubbleHandshakeAndPacedJoin(t *testing.T) {
	w := gen.Micro(gen.MicroConfig{RateR: 24, RateS: 24, WindowMs: 120, Dupe: 6, Seed: 11})
	want := expected(w.R, w.S)
	for _, alg := range []core.Algorithm{Handshake{}, SHJ{}} {
		t.Run(alg.Name(), func(t *testing.T) {
			synctest.Run(func() {
				var n int64
				res, err := core.Run(alg, w.R, w.S, w.WindowMs, core.RunConfig{
					Threads: 2, Emit: func(tuple.JoinResult) { n++ },
				})
				atReturn := n
				synctest.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if res.Matches != want || atReturn != want || n != atReturn {
					t.Fatalf("%d matches, %d results delivered when Run returned and %d after the bubble settled; want %d", res.Matches, atReturn, n, want)
				}
			})
		})
	}
}
