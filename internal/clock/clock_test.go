package clock

import (
	"testing"
	"time"
)

func TestManual(t *testing.T) {
	c := NewManual()
	if c.NowMs() != 0 {
		t.Fatal("manual clock should start at 0")
	}
	if c.Avail(1) {
		t.Fatal("ts=1 should not be available at time 0")
	}
	if !c.Avail(0) {
		t.Fatal("ts=0 should be available at time 0")
	}
	c.Advance(10)
	if c.NowMs() != 10 || !c.Avail(10) || c.Avail(11) {
		t.Fatalf("after Advance(10): now=%d", c.NowMs())
	}
	c.Set(5)
	if c.NowMs() != 5 {
		t.Fatalf("after Set(5): now=%d", c.NowMs())
	}
	if c.AtRest() {
		t.Fatal("manual clock is not at rest")
	}
}

func TestScaledAdvances(t *testing.T) {
	// 1 simulated ms per 100µs real: after ~5ms real the clock must
	// read at least 10 simulated ms.
	c := NewScaled(100e3)
	time.Sleep(5 * time.Millisecond)
	if now := c.NowMs(); now < 10 {
		t.Fatalf("scaled clock too slow: %d sim-ms after 5ms real", now)
	}
	if c.AtRest() {
		t.Fatal("scaled clock is not at rest")
	}
}

func TestScaledDefaultsOnBadInput(t *testing.T) {
	// Every constructor goes through Restart, which reads a rate that is
	// not positive as real time.
	for _, c := range []*Scaled{NewScaled(0), NewScaled(-5), NewStatic(0)} {
		if c.nsPerMs != 1e6 {
			t.Fatalf("nsPerMs = %f, want real-time default 1e6", c.nsPerMs)
		}
	}
}

// TestSourceInterfaceSatisfaction holds every Source to the contract the
// runners read: AtRest says whether Avail gates, a far-future timestamp
// is available only at rest, and NowMs never goes backwards.
func TestSourceInterfaceSatisfaction(t *testing.T) {
	type row struct {
		name   string
		src    Source
		atRest bool
	}
	sources := []row{
		{"Scaled", NewScaled(1e3), false},
		{"Static", NewStatic(1e3), true},
		{"Manual", NewManual(), false},
	}
	for _, s := range sources {
		sources = append(sources, row{"Perturb/" + s.name, Perturb(s.src, PerturbConfig{Seed: 5}), s.atRest})
	}
	for _, s := range sources {
		if got := s.src.AtRest(); got != s.atRest {
			t.Errorf("%s: AtRest = %v, want %v", s.name, got, s.atRest)
		}
		if got := s.src.Avail(1 << 40); got != s.atRest {
			t.Errorf("%s: Avail(far future) = %v, want %v", s.name, got, s.atRest)
		}
		prev := s.src.NowMs()
		for range 100 {
			now := s.src.NowMs()
			if now < prev {
				t.Fatalf("%s: NowMs went backwards: %d after %d", s.name, now, prev)
			}
			prev = now
		}
	}
}

func TestStaticClock(t *testing.T) {
	c := NewStatic(1000) // 1µs per reported ms
	time.Sleep(2 * time.Millisecond)
	if c.NowMs() < 100 {
		t.Fatalf("static clock must tick at the compressed rate: %d", c.NowMs())
	}
}

func TestStopwatch(t *testing.T) {
	sw := StartStopwatch()
	time.Sleep(time.Millisecond)
	first := sw.ElapsedNs()
	if first < int64(time.Millisecond) {
		t.Fatalf("ElapsedNs = %d after sleeping 1ms", first)
	}
	if again := sw.ElapsedNs(); again < first {
		t.Fatalf("ElapsedNs went backwards: %d then %d", first, again)
	}
}

// TestPacerDefaultRate holds the pacing side of the real-time default: a
// clock made with a rate that is not positive paces a timestamp 1000 ms
// out at about one real second.
func TestPacerDefaultRate(t *testing.T) {
	c := NewScaled(0)
	if got := c.Behind(1000); got <= 900*time.Millisecond || got > time.Second {
		t.Fatalf("Behind(1000) = %v on a default-rate clock, want about 1s", got)
	}
}

func TestPacerPacesDueTimestamps(t *testing.T) {
	c := NewScaled(1e5) // 0.1ms real per simulated ms
	sw := StartStopwatch()
	c.Pace(10) // due at 1ms real
	if got := sw.ElapsedNs(); got < int64(time.Millisecond) {
		t.Fatalf("Pace(10) returned after %dns, want >= 1ms", got)
	}
	if c.Behind(0) > 0 {
		t.Fatal("timestamp 0 must be due immediately")
	}
	// Past timestamps return without sleeping: the clock only waits for
	// the future.
	sw = StartStopwatch()
	c.Pace(1)
	if got := sw.ElapsedNs(); got > int64(50*time.Millisecond) {
		t.Fatalf("Pace on an overdue timestamp slept %dns", got)
	}
}
