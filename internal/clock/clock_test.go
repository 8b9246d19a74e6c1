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
	if c.ElapsedNs() <= 0 {
		t.Fatal("ElapsedNs must be positive")
	}
}

func TestScaledDefaultsOnBadInput(t *testing.T) {
	c := NewScaled(0)
	if c.nsPerMs != 1e6 {
		t.Fatalf("nsPerMs = %f, want 1e6 default", c.nsPerMs)
	}
	c = NewScaled(-5)
	if c.nsPerMs != 1e6 {
		t.Fatalf("nsPerMs = %f, want 1e6 default", c.nsPerMs)
	}
}

func TestSourceInterfaceSatisfaction(t *testing.T) {
	var _ Source = NewManual()
	var _ Source = NewScaled(1)
}

func TestStaticClock(t *testing.T) {
	c := NewStatic(1000) // 1µs per reported ms
	if !c.AtRest() {
		t.Fatal("static clock must report at rest")
	}
	if !c.Avail(1 << 40) {
		t.Fatal("static clock must make any timestamp available")
	}
	time.Sleep(2 * time.Millisecond)
	if c.NowMs() < 100 {
		t.Fatalf("static clock must tick at the compressed rate: %d", c.NowMs())
	}
	var _ Source = c
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

func TestPacerPacesDueTimestamps(t *testing.T) {
	p := NewPacer(1e5) // 0.1ms real per simulated ms
	sw := StartStopwatch()
	p.Pace(10) // due at 1ms real
	if got := sw.ElapsedNs(); got < int64(time.Millisecond) {
		t.Fatalf("Pace(10) returned after %dns, want >= 1ms", got)
	}
	if p.Behind(0) > 0 {
		t.Fatal("timestamp 0 must be due immediately")
	}
	// Past timestamps return without sleeping: the pacer only waits for
	// the future.
	sw = StartStopwatch()
	p.Pace(1)
	if got := sw.ElapsedNs(); got > int64(50*time.Millisecond) {
		t.Fatalf("Pace on an overdue timestamp slept %dns", got)
	}
}

func TestPacerDefaultRate(t *testing.T) {
	p := NewPacer(0)
	if p.nsPerMs != 1e6 {
		t.Fatalf("nsPerMs = %v, want real-time default 1e6", p.nsPerMs)
	}
}
