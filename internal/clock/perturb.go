package clock

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/zipf"
)

// Perturbed wraps a Source with deterministic adversarial scheduling: it
// injects cooperative yield points into every clock read and jitters the
// reported simulated time within a bounded envelope. Eager algorithms gate
// tuple availability on NowMs, so perturbing the clock perturbs exactly
// the arrival schedule they observe — which batch boundaries fall where,
// when a worker stalls, which interleavings the race detector gets to see.
// Single-threaded unit tests exercise one schedule; a conformance sweep
// over perturbation seeds exercises many (see internal/oracle and
// TESTING.md).
//
// The perturbation is bounded and sound:
//
//   - Reported time never decreases (a per-clock floor enforces
//     monotonicity), and it trails the wrapped source by at most
//     MaxJitterMs, so WaitWindow and the eager drain loops still
//     terminate.
//   - The jitter is a pure function of (Seed, raw time), so the same seed
//     yields the same availability envelope on every replay of the same
//     workload — failures found under perturbation are reproducible from
//     the seed string alone (up to goroutine scheduling, which -race and
//     the injected yields explore).
//
// At-rest sources are passed through unjittered (there is no arrival
// schedule to perturb) but still receive yield injection.
type Perturbed struct {
	src Source
	cfg PerturbConfig

	calls atomic.Uint64
	floor atomic.Int64
}

// PerturbConfig tunes the adversarial schedule; zero values select
// defaults.
type PerturbConfig struct {
	// Seed drives every pseudo-random decision deterministically.
	Seed uint64
	// MaxJitterMs bounds how far reported time may trail the wrapped
	// source (default 3 ms of simulated time).
	MaxJitterMs int64
	// YieldEvery makes roughly one in YieldEvery clock reads call
	// runtime.Gosched (default 5).
	YieldEvery int
	// SleepEvery makes roughly one in SleepEvery clock reads sleep a few
	// microseconds, forcing a real reschedule even on a single P
	// (default 61).
	SleepEvery int
}

func (c *PerturbConfig) defaults() {
	if c.MaxJitterMs <= 0 {
		c.MaxJitterMs = 3
	}
	if c.YieldEvery <= 0 {
		c.YieldEvery = 5
	}
	if c.SleepEvery <= 0 {
		c.SleepEvery = 61
	}
}

// Perturb wraps src in a deterministic schedule perturbation.
func Perturb(src Source, cfg PerturbConfig) *Perturbed {
	cfg.defaults()
	return &Perturbed{src: src, cfg: cfg}
}

// yieldPoint is the cooperative yield injected into every clock read. The
// call counter, not time, indexes the decision, so two workers racing
// through the same code path diverge in where they get descheduled.
func (p *Perturbed) yieldPoint() {
	n := p.calls.Add(1)
	h := zipf.Mix64(p.cfg.Seed ^ n)
	if h%uint64(p.cfg.SleepEvery) == 0 {
		// A real sleep forces the scheduler to run someone else even
		// with GOMAXPROCS=1, where Gosched alone often resumes the
		// same goroutine.
		time.Sleep(time.Duration(1+h>>32%7) * time.Microsecond)
		return
	}
	if h%uint64(p.cfg.YieldEvery) == 0 {
		runtime.Gosched()
	}
}

// NowMs implements Source: the wrapped time minus a bounded,
// seed-deterministic jitter, clamped monotone non-decreasing.
func (p *Perturbed) NowMs() int64 {
	p.yieldPoint()
	raw := p.src.NowMs()
	if p.src.AtRest() {
		return raw
	}
	jit := int64(zipf.Mix64(p.cfg.Seed^uint64(raw)) % uint64(p.cfg.MaxJitterMs+1))
	v := raw - jit
	if v < 0 {
		v = 0
	}
	for {
		f := p.floor.Load()
		if v <= f {
			return f
		}
		if p.floor.CompareAndSwap(f, v) {
			return v
		}
	}
}

// Avail implements Source using the perturbed time, so lazy window waits
// see the same delayed arrival envelope as eager gating.
func (p *Perturbed) Avail(ts int64) bool {
	if p.src.AtRest() {
		p.yieldPoint()
		return true
	}
	return ts <= p.NowMs()
}

// AtRest implements Source.
func (p *Perturbed) AtRest() bool { return p.src.AtRest() }
