//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package iawj

import (
	"fmt"
	"strings"
	"testing"
	"testing/synctest"
)

// The tests of this file run each call inside a synctest bubble
// (TESTING.md, "Bubbles"): synctest.Run returns only once every goroutine
// the call started has exited, and panics at once if one is left blocked.
// After each call they synctest.Wait for the rest of the bubble and check
// that no result arrived after the call returned, so a worker left running
// shows up as a result delivered late.

// failAt is the result on which a panicking consumer gives up.
const failAt = 100

// consumer counts what a call delivers; with panics set it gives up on
// result failAt.
type consumer struct {
	n      int64
	panics bool
}

func (c *consumer) emit(JoinResult) {
	c.n++
	if c.panics && c.n == failAt {
		panic("consumer gave up")
	}
}

// checkDelivered holds the consumer to what the call returned: every
// result of a clean call, counted before synctest.Wait, and nothing after;
// for a failing call the consumer's panic as the error and no result past
// it.
func checkDelivered(t *testing.T, c *consumer, atReturn, matches int64, err error) {
	t.Helper()
	if c.panics {
		if err == nil || !strings.Contains(err.Error(), "core: emit: panic: consumer gave up") {
			t.Fatalf("err = %v, want the consumer's panic", err)
		}
		matches = failAt
	} else if err != nil {
		t.Fatal(err)
	}
	if atReturn != matches || c.n != atReturn {
		t.Fatalf("%d results delivered when the call returned, %d after the bubble settled; the call reports %d", atReturn, c.n, matches)
	}
}

// TestBubbleJoins runs every algorithm and HANDSHAKE, at rest and paced,
// count-only, with a counting Emit and with a panicking one, each call in
// a bubble of its own.
func TestBubbleJoins(t *testing.T) {
	w := Micro(MicroConfig{RateR: 24, RateS: 24, WindowMs: 120, Dupe: 6, Seed: 11})
	want := ExpectedMatches(w.R, w.S)
	for _, alg := range append(Algorithms(), "HANDSHAKE") {
		for _, rest := range []bool{true, false} {
			for _, mode := range []string{"count", "emit", "panic"} {
				t.Run(fmt.Sprintf("%s/rest=%v/%s", alg, rest, mode), func(t *testing.T) {
					synctest.Run(func() {
						c := &consumer{panics: mode == "panic"}
						cfg := Config{Algorithm: alg, Threads: 2, WindowMs: w.WindowMs, AtRest: rest}
						if mode != "count" {
							cfg.Emit = c.emit
						}
						res, err := Join(w.R, w.S, cfg)
						atReturn := c.n
						synctest.Wait()
						if mode == "count" {
							if err != nil || res.Matches != want {
								t.Fatalf("count-only: %d matches, want %d (err %v)", res.Matches, want, err)
							}
							return
						}
						if err == nil && res.Matches != want {
							t.Fatalf("%d matches, want %d", res.Matches, want)
						}
						checkDelivered(t, c, atReturn, res.Matches, err)
					})
				})
			}
		}
	}
}

// TestBubbleWindowedParallel runs JoinWindowedParallel with two windows in
// flight, clean and with a panicking Emit, in a bubble per call.
func TestBubbleWindowedParallel(t *testing.T) {
	w := Micro(MicroConfig{RateR: 40, RateS: 40, WindowMs: 400, Dupe: 4, Seed: 47})
	spec := WindowSpec{Kind: Tumbling, LengthMs: 50}
	for _, alg := range Algorithms() {
		cfg := Config{Algorithm: alg, Threads: 2, AtRest: true}
		seq, err := JoinWindowed(w.R, w.S, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := TotalMatches(seq)
		for _, panics := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/panic=%v", alg, panics), func(t *testing.T) {
				synctest.Run(func() {
					c := &consumer{panics: panics}
					cfg := cfg
					cfg.Emit = c.emit
					par, err := JoinWindowedParallel(w.R, w.S, spec, cfg, 2)
					atReturn, total := c.n, TotalMatches(par)
					synctest.Wait()
					if err == nil && total != want {
						t.Fatalf("%d matches over the windows, want %d", total, want)
					}
					checkDelivered(t, c, atReturn, total, err)
				})
			})
		}
	}
}
