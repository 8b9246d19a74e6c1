//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package clock

import (
	"testing"
	"testing/synctest"
	"time"
)

// TestBubblePace runs pacing in a synctest bubble (TESTING.md, "Bubbles"),
// where time advances only while every goroutine sleeps: Pace's wait is
// exact, an overdue Pace does not sleep at all, and a timestamp is due by
// Behind exactly when Avail says it has arrived, on the tick boundaries
// too, for a streaming and an at-rest clock alike.
func TestBubblePace(t *testing.T) {
	synctest.Run(func() {
		c := NewScaled(1e5) // 0.1 ms real per simulated ms
		sw := StartStopwatch()
		c.Pace(10)
		if got := sw.ElapsedNs(); got != int64(time.Millisecond) {
			t.Errorf("Pace(10) at 1e5 ns/ms returned after %d ns, want exactly 1 ms", got)
		}
		sw = StartStopwatch()
		c.Pace(3)
		if got := sw.ElapsedNs(); got != 0 {
			t.Errorf("Pace on an overdue timestamp slept %d ns", got)
		}
		for _, c := range []*Scaled{NewScaled(1e5), NewStatic(1e5)} {
			for step := range 12 {
				for ts := int64(0); ts <= 8; ts++ {
					if due, avail := c.Behind(ts) <= 0, c.Avail(ts); due != avail {
						t.Errorf("at rest %v, %d µs in: Behind(%d) due %v, Avail %v",
							c.AtRest(), step*50, ts, due, avail)
					}
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	})
}
