package core

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/tuple"
)

func TestChunkCoversAll(t *testing.T) {
	f := func(nRaw uint16, thRaw uint8) bool {
		n := int(nRaw)
		threads := int(thRaw)%8 + 1
		covered := 0
		prevHi := 0
		for tid := 0; tid < threads; tid++ {
			lo, hi := Chunk(n, threads, tid)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// countAlg is a trivial Algorithm used to exercise the runner.
type countAlg struct{ ran *bool }

func (countAlg) Name() string { return "COUNT" }
func (c countAlg) Run(ctx *ExecContext) error {
	*c.ran = true
	if ctx.Threads < 1 {
		return errors.New("no threads")
	}
	ctx.M.T(0).Matches(3, 10, 5)
	return nil
}

func TestRunProducesResult(t *testing.T) {
	ran := false
	r := tuple.Relation{{TS: 0, Key: 1}}
	s := tuple.Relation{{TS: 0, Key: 1}}
	res, err := Run(countAlg{&ran}, r, s, 10, RunConfig{Threads: 2, AtRest: true})
	if err != nil || !ran {
		t.Fatalf("run failed: %v ran=%v", err, ran)
	}
	if res.Matches != 3 || res.Inputs != 2 || res.Threads != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.Algorithm != "COUNT" {
		t.Fatalf("algorithm name = %q", res.Algorithm)
	}
}

func TestRunNilAlgorithm(t *testing.T) {
	if _, err := Run(nil, nil, nil, 0, RunConfig{}); !errors.Is(err, ErrNoAlgorithm) {
		t.Fatalf("err = %v", err)
	}
}

func TestKnobDefaults(t *testing.T) {
	var k Knobs
	k.defaults()
	if k.RadixBits != 10 || k.SortStepFrac != 0.2 || k.GroupSize != 1 || k.BatchSize != 64 {
		t.Fatalf("defaults = %+v", k)
	}
	k = Knobs{RadixBits: 12, SortStepFrac: 0.4, GroupSize: 4, BatchSize: 16}
	k.defaults()
	if k.RadixBits != 12 || k.SortStepFrac != 0.4 || k.GroupSize != 4 || k.BatchSize != 16 {
		t.Fatalf("defaults overwrote explicit values: %+v", k)
	}
}

// TestRunValidatesKnobs pins the two bounded knobs at their bound and one
// past it: past it the run fails before the algorithm starts, as every
// other core.Run failure reads, instead of panicking in a kernel
// (1<<64 == 0 partitions) or exhausting memory (2^40 of them).
func TestRunValidatesKnobs(t *testing.T) {
	r := tuple.Relation{{TS: 0, Key: 1}}
	for _, c := range []struct {
		knobs Knobs
		want  string // "" = runs
	}{
		{Knobs{RadixBits: maxRadixBits}, ""},
		{Knobs{RadixBits: maxRadixBits + 1}, "core: COUNT: radix bits 21 exceed the maximum 20"},
		{Knobs{RadixBits: 64}, "core: COUNT: radix bits 64 exceed the maximum 20"},
		{Knobs{GroupSize: 2}, ""},
		{Knobs{GroupSize: 3}, "core: COUNT: group size 3 exceeds 2 threads"},
	} {
		ran := false
		_, err := Run(countAlg{&ran}, r, r, 10, RunConfig{Threads: 2, AtRest: true, Knobs: c.knobs})
		switch {
		case c.want == "" && (err != nil || !ran):
			t.Errorf("%+v: err = %v, ran = %v; want a clean run", c.knobs, err, ran)
		case c.want != "" && (err == nil || err.Error() != c.want || ran):
			t.Errorf("%+v: err = %v, ran = %v; want %q before the algorithm runs", c.knobs, err, ran, c.want)
		}
	}
}

// Decision-tree tests: every leaf of Figure 4 must be reachable and the
// recommendations must match the paper's text.

func TestDecisionLowRateRecommendsSHJJM(t *testing.T) {
	adv := Advise(Profile{RateR: 100, RateS: 50000}, DefaultThresholds())
	if adv.Algorithm != "SHJ_JM" {
		t.Fatalf("one low-rate stream must pick SHJ_JM, got %s", adv.Algorithm)
	}
}

func TestDecisionHighRateHighDupe(t *testing.T) {
	base := Profile{RateR: 30000, RateS: 30000, Dupe: 100, Tuples: 1 << 22}
	big := base
	big.Cores = 16
	if adv := Advise(big, DefaultThresholds()); adv.Algorithm != "MPASS" {
		t.Fatalf("large cores must pick MPASS, got %s", adv.Algorithm)
	}
	small := base
	small.Cores = 4
	if adv := Advise(small, DefaultThresholds()); adv.Algorithm != "MWAY" {
		t.Fatalf("small cores must pick MWAY, got %s", adv.Algorithm)
	}
}

func TestDecisionHighRateLowDupe(t *testing.T) {
	big := Profile{RateR: 30000, RateS: 30000, Dupe: 1, KeySkew: 0.1, Tuples: 1 << 22, Cores: 8}
	if adv := Advise(big, DefaultThresholds()); adv.Algorithm != "PRJ" {
		t.Fatalf("low skew + large join must pick PRJ, got %s", adv.Algorithm)
	}
	skewed := big
	skewed.KeySkew = 1.5
	if adv := Advise(skewed, DefaultThresholds()); adv.Algorithm != "NPJ" {
		t.Fatalf("high skew must pick NPJ (PRJ is skew-intolerant), got %s", adv.Algorithm)
	}
	small := big
	small.Tuples = 1000
	if adv := Advise(small, DefaultThresholds()); adv.Algorithm != "NPJ" {
		t.Fatalf("small join must pick NPJ, got %s", adv.Algorithm)
	}
}

func TestDecisionMediumRate(t *testing.T) {
	highDupe := Profile{RateR: 12800, RateS: 12800, Dupe: 100, Cores: 8}
	if adv := Advise(highDupe, DefaultThresholds()); adv.Algorithm != "PMJ_JB" {
		t.Fatalf("medium rate + high dupe must pick PMJ_JB, got %s", adv.Algorithm)
	}
	lat := Profile{RateR: 12800, RateS: 12800, Dupe: 1, Cores: 8, Objective: OptLatency}
	if adv := Advise(lat, DefaultThresholds()); adv.Algorithm != "SHJ_JM" {
		t.Fatalf("medium rate + low dupe + latency must pick SHJ_JM, got %s", adv.Algorithm)
	}
	prog := lat
	prog.Objective = OptProgressiveness
	if adv := Advise(prog, DefaultThresholds()); adv.Algorithm != "SHJ_JM" {
		t.Fatalf("progressiveness objective must pick SHJ_JM, got %s", adv.Algorithm)
	}
	tput := Profile{RateR: 12800, RateS: 12800, Dupe: 1, KeySkew: 0.1, Tuples: 1 << 22, Cores: 8, Objective: OptThroughput}
	adv := Advise(tput, DefaultThresholds())
	if adv.Algorithm != "PRJ" && adv.Algorithm != "NPJ" {
		t.Fatalf("throughput objective must fall through to the lazy subtree, got %s", adv.Algorithm)
	}
}

func TestDecisionAtRest(t *testing.T) {
	adv := Advise(Profile{RateR: RateInfinite, RateS: RateInfinite, Dupe: 500, Cores: 8, Tuples: 1 << 22}, DefaultThresholds())
	if adv.Algorithm != "MPASS" {
		t.Fatalf("at-rest high-dupe (DEBS-like) must pick MPASS, got %s", adv.Algorithm)
	}
}

func TestAdvicePathIsExplained(t *testing.T) {
	adv := Advise(Profile{RateR: 100, RateS: 100}, DefaultThresholds())
	if len(adv.Path) == 0 {
		t.Fatal("advice must carry the decision path")
	}
	if adv.String() == "" {
		t.Fatal("advice must render")
	}
}

func TestObjectiveAndRateLevelStrings(t *testing.T) {
	if OptThroughput.String() != "throughput" || OptLatency.String() != "latency" ||
		OptProgressiveness.String() != "progressiveness" {
		t.Fatal("objective strings")
	}
	// The rate level has no type of its own; it is the root step's label.
	th := DefaultThresholds()
	for rate, want := range map[float64]string{12800: "arrival rate: medium", 25600: "arrival rate: high"} {
		if got := Advise(Profile{RateR: rate, RateS: rate}, th).Path[0]; got != want {
			t.Errorf("rate %v: root step %q, want %q", rate, got, want)
		}
	}
}

func TestSinkRecordsMatches(t *testing.T) {
	ctx := &ExecContext{
		R:       tuple.Relation{{TS: 1, Key: 1}},
		S:       tuple.Relation{{TS: 2, Key: 1}},
		Threads: 1,
		Clock:   fakeClock{now: 100},
		M:       metrics.NewCollector(1),
	}
	var emitted []tuple.JoinResult
	ctx.Out = NewOutbox(func(jr tuple.JoinResult) { emitted = append(emitted, jr) }, pool.New())
	k := NewSink(ctx, 0)
	k.Match(ctx.R[0], ctx.S[0])
	k.Refresh()
	if got := ctx.M.Snapshot("x", 2, 1).Matches; got != 1 {
		t.Fatalf("match count = %d", got)
	}
	if len(emitted) != 1 || emitted[0].TS != 2 {
		t.Fatalf("emitted = %+v", emitted)
	}
}

type fakeClock struct{ now int64 }

func (f fakeClock) NowMs() int64       { return f.now }
func (f fakeClock) Avail(t int64) bool { return t <= f.now }
func (f fakeClock) AtRest() bool       { return false }

func TestWaitWindowBlocksUntilArrival(t *testing.T) {
	mc := clock.NewManual()
	ctx := &ExecContext{
		R:        tuple.Relation{{TS: 5, Key: 1}},
		S:        tuple.Relation{{TS: 8, Key: 1}},
		WindowMs: 10,
		Threads:  1,
		Clock:    mc,
		M:        metrics.NewCollector(1),
	}
	done := make(chan struct{})
	go func() {
		ctx.WaitWindow(0)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("WaitWindow returned before the window closed")
	case <-time.After(5 * time.Millisecond):
	}
	mc.Set(10) // window fully arrived
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("WaitWindow did not return after the window closed")
	}
	res := ctx.M.Snapshot("x", 2, 1)
	if res.PhaseNs[metrics.PhaseWait] == 0 {
		t.Fatal("wait time must be recorded")
	}
}

func TestRunRejectsUnsortedStreaming(t *testing.T) {
	ran := false
	r := tuple.Relation{{TS: 9}, {TS: 1}}
	if _, err := Run(countAlg{&ran}, r, nil, 10, RunConfig{Threads: 1}); !errors.Is(err, ErrUnsortedInput) {
		t.Fatalf("err = %v, want ErrUnsortedInput", err)
	}
	if ran {
		t.Fatal("algorithm must not run on rejected input")
	}
}

type phaseRecorder struct {
	phases []int
}

func (p *phaseRecorder) Access(uint64)   {}
func (p *phaseRecorder) Op(uint64)       {}
func (p *phaseRecorder) SetPhase(ph int) { p.phases = append(p.phases, ph) }

func TestBeginForwardsPhaseToTracer(t *testing.T) {
	rec := &phaseRecorder{}
	ctx := &ExecContext{
		Threads: 1,
		Clock:   fakeClock{},
		M:       metrics.NewCollector(1),
		Tracer:  rec,
	}
	ctx.Begin(0, metrics.PhaseProbe)
	ctx.Begin(0, metrics.PhaseMerge)
	if len(rec.phases) != 2 || rec.phases[0] != int(metrics.PhaseProbe) || rec.phases[1] != int(metrics.PhaseMerge) {
		t.Fatalf("phases = %v", rec.phases)
	}
}

// TestBaseTSOffsetsEveryTimestampReader drives the four context-level
// timestamp readers with inputs that count from a window start of 300: the
// arrival gate, Avail, WaitWindow and the sink must all see window-relative
// time, as they would on a copy rebased to zero.
func TestBaseTSOffsetsEveryTimestampReader(t *testing.T) {
	mc := clock.NewManual()
	mc.Set(5)
	ctx := &ExecContext{
		R:        tuple.Relation{{TS: 302, Key: 1, Payload: 7}},
		S:        tuple.Relation{{TS: 304, Key: 1, Payload: 9}},
		WindowMs: 10,
		BaseTS:   300,
		Threads:  1,
		Clock:    mc,
		M:        metrics.NewCollector(1),
	}
	if got := ctx.GateMs(); got != 305 {
		t.Fatalf("GateMs = %d, want 305", got)
	}
	if !ctx.Avail(305) || ctx.Avail(306) {
		t.Fatal("Avail must compare window-relative arrival: 305 has arrived at t=5, 306 has not")
	}

	var emitted []tuple.JoinResult
	ctx.Out = NewOutbox(func(jr tuple.JoinResult) { emitted = append(emitted, jr) }, pool.New())
	k := NewSink(ctx, 0)
	k.Match(ctx.R[0], ctx.S[0])
	k.Close() // a sink keeps its last matches and results until a clock sample or Close
	if want := (tuple.JoinResult{TS: 4, Key: 1, PayloadR: 7, PayloadS: 9}); len(emitted) != 1 || emitted[0] != want {
		t.Fatalf("emitted %+v, want the window-relative %+v", emitted, want)
	}

	done := make(chan struct{})
	go func() {
		ctx.WaitWindow(0)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("WaitWindow returned at t=5 of a 10 ms window")
	case <-time.After(5 * time.Millisecond):
	}
	mc.Set(10) // the window has fully arrived; absolute time 310 never comes
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("WaitWindow waited for the absolute timestamp, not the window-relative one")
	}
	if res := ctx.M.Snapshot("x", 2, 1); res.LatencyMaxMs != 1 {
		t.Fatalf("latency = %d ms, want 1 (emitted at t=5, last input due at t=4)", res.LatencyMaxMs)
	}
}
