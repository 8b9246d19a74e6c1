// Package clock provides the virtual time source that simulates stream
// arrival for the eager algorithms and the window wait of the lazy ones.
//
// The paper uses RDTSC to let every thread track its elapsed time and treat
// a tuple as "not yet arrived" while its timestamp exceeds that elapsed
// time. We reproduce the same gating with a monotonic wall-clock scaled by
// a configurable factor, so experiments can compress simulated milliseconds
// into much shorter real time, run in real time, or disable arrival gating
// entirely for data-at-rest inputs (the paper's DEBS workload and the
// Section 5.5 static experiments).
package clock

import (
	"sync/atomic"
	"time"
)

// Source yields the current simulated time in milliseconds and answers
// whether a tuple with a given arrival timestamp is available yet.
type Source interface {
	// NowMs is the elapsed simulated time in milliseconds since Start.
	NowMs() int64
	// Avail reports whether a tuple stamped ts has arrived.
	Avail(ts int64) bool
	// AtRest reports whether arrival gating is disabled (all input is
	// instantly available, as for static datasets).
	AtRest() bool
}

// Scaled is the production Source: simulated time advances with real time,
// one simulated millisecond per NsPerMs real nanoseconds. A clock at rest
// ticks the same way but gates nothing: every tuple has arrived.
type Scaled struct {
	start   time.Time
	nsPerMs float64
	atRest  bool
}

// NewScaled starts a streaming clock. nsPerMs is the number of real
// nanoseconds that make up one simulated millisecond; 1e6 runs in real
// time, smaller values compress the simulation. nsPerMs must be positive.
func NewScaled(nsPerMs float64) *Scaled {
	c := new(Scaled)
	c.Restart(nsPerMs, false)
	return c
}

// NewStatic returns an at-rest clock ticking at nsPerMs real nanoseconds
// per reported millisecond.
func NewStatic(nsPerMs float64) *Scaled {
	c := new(Scaled)
	c.Restart(nsPerMs, true)
	return c
}

// Restart starts c afresh at nsPerMs, at rest or streaming, in place: a
// clock held by value in a pooled structure serves run after run.
func (c *Scaled) Restart(nsPerMs float64, atRest bool) {
	if nsPerMs <= 0 {
		nsPerMs = 1e6
	}
	c.start, c.nsPerMs, c.atRest = time.Now(), nsPerMs, atRest
}

// NowMs implements Source.
func (c *Scaled) NowMs() int64 {
	return int64(float64(time.Since(c.start)) / c.nsPerMs)
}

// Avail implements Source.
func (c *Scaled) Avail(ts int64) bool { return c.atRest || ts <= c.NowMs() }

// AtRest implements Source.
func (c *Scaled) AtRest() bool { return c.atRest }

// Behind reports how much real time remains until the tuple stamped tsMs
// is due; zero or negative means it is due now, exactly when Avail(tsMs)
// holds. At rest every tuple is due.
func (c *Scaled) Behind(tsMs int64) time.Duration {
	if c.atRest {
		return 0
	}
	return time.Duration(float64(tsMs)*c.nsPerMs) - time.Since(c.start)
}

// Pace blocks until the tuple stamped tsMs is due: the sender's side of
// arrival, replaying a stream at the clock's rate (internal/ingest).
func (c *Scaled) Pace(tsMs int64) {
	if wait := c.Behind(tsMs); wait > 0 {
		time.Sleep(wait)
	}
}

// Stopwatch measures real elapsed time for metrics attribution (phase
// breakdowns, wall-clock totals). It is the sanctioned wall-clock wrapper:
// algorithm and harness code measures durations through a Stopwatch
// instead of calling time.Now directly, so the determinism lint rule can
// keep raw wall-clock reads out of the kernels.
type Stopwatch struct {
	start time.Time
}

// StartStopwatch starts measuring now.
func StartStopwatch() Stopwatch { return Stopwatch{start: time.Now()} }

// ElapsedNs is the real time elapsed since the stopwatch started.
func (s Stopwatch) ElapsedNs() int64 { return int64(time.Since(s.start)) }

// Manual is a deterministic Source for tests: time advances only when the
// test calls Advance or Set.
type Manual struct {
	now atomic.Int64
}

// NewManual returns a manual clock at time zero.
func NewManual() *Manual { return &Manual{} }

// NowMs implements Source.
func (c *Manual) NowMs() int64 { return c.now.Load() }

// Avail implements Source.
func (c *Manual) Avail(ts int64) bool { return ts <= c.now.Load() }

// AtRest implements Source.
func (c *Manual) AtRest() bool { return false }

// Advance moves the clock forward by d milliseconds.
func (c *Manual) Advance(d int64) { c.now.Add(d) }

// Set jumps the clock to t milliseconds.
func (c *Manual) Set(t int64) { c.now.Store(t) }
