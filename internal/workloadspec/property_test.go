package workloadspec

import (
	"bytes"
	"fmt"
	"math"
	"repro/internal/gen"
	"testing"
)

// propertySpec builds a 4-client mixed spec exercising every non-trace
// arrival process and every key distribution at a parameterized seed.
func propertySpec(seed uint64) *Spec {
	return &Spec{
		Version:    SpecVersion,
		Name:       "property-mix",
		Seed:       seed,
		WindowMs:   500,
		DurationMs: 2000,
		RateR:      40,
		RateS:      25,
		Clients: []Client{
			{
				ID: "steady", RateFraction: 0.40,
				Arrival: ArrivalSpec{Process: ProcConstant},
				Keys:    KeySpec{Dist: KeysUniform, Domain: 4096},
			},
			{
				ID: "web", RateFraction: 0.30, Stream: "R",
				Arrival: ArrivalSpec{Process: ProcPoisson},
				Keys:    KeySpec{Dist: KeysZipf, Domain: 4096, Theta: 1.0},
			},
			{
				ID: "batch", RateFraction: 0.20, Stream: "S",
				Arrival: ArrivalSpec{Process: ProcGamma, CV: 2},
				Keys:    KeySpec{Dist: KeysHotset, Domain: 4096, HotKeys: 16, HotFrac: 0.8},
				Payload: &PayloadSpec{Kind: PayloadUniform, Min: -8, Max: 8},
			},
			{
				ID: "spiky", RateFraction: 0.10,
				Arrival: ArrivalSpec{Process: ProcMMPP, OnMs: 200, OffMs: 200},
				Keys:    KeySpec{Dist: KeysUniform, Domain: 64},
			},
		},
	}
}

// TestCompiledSchedulesMonotone: R and S must each be non-decreasing in
// arrival time — what core.Run requires of its inputs, and what the window
// slicer and every arrival-gated join assume.
func TestCompiledSchedulesMonotone(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		c, err := Compile(propertySpec(seed), Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !c.R.SortedByTS() {
			t.Fatalf("seed %d: compiled R stream not time-ordered", seed)
		}
		if !c.S.SortedByTS() {
			t.Fatalf("seed %d: compiled S stream not time-ordered", seed)
		}
	}
}

// TestClientRatesSumToTarget: the compiled per-stream tuple counts must
// land within 1% of rate x duration. Constant is exact, Poisson/gamma
// concentrate tightly at this n; MMPP's realized count has high variance
// over few on/off cycles, so it is held separately to a wider bound.
func TestClientRatesSumToTarget(t *testing.T) {
	sp := propertySpec(3)
	// Drop the MMPP client and fold its fraction into the constant client
	// so constant+poisson+gamma carry the whole rate.
	sp.Clients = sp.Clients[:3]
	sp.Clients[0].RateFraction = 0.50
	sp.DurationMs = 5000
	c, err := Compile(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dur := float64(sp.DurationMs)
	// A stream's target is its rate times the summed fractions of the
	// clients that feed it ("both" clients count toward both streams).
	fracR, fracS := 0.0, 0.0
	for _, cl := range sp.Clients {
		if feedsStream(cl.Stream, 'R') {
			fracR += cl.RateFraction
		}
		if feedsStream(cl.Stream, 'S') {
			fracS += cl.RateFraction
		}
	}
	for _, st := range []struct {
		name string
		rate float64
		got  int
	}{
		{"R", sp.RateR * fracR, len(c.R)},
		{"S", sp.RateS * fracS, len(c.S)},
	} {
		want := st.rate * dur
		if dev := math.Abs(float64(st.got)-want) / want; dev > 0.01 {
			t.Errorf("%s: %d tuples vs target %.0f — %.2f%% off, want within 1%%", st.name, st.got, want, dev*100)
		}
	}

	// MMPP alone, long duration: the long-run rate must still converge,
	// just with a wider tolerance over the on/off cycle variance.
	mp := &Spec{
		Version: SpecVersion, Name: "mmpp-only", Seed: 5,
		WindowMs: 1000, DurationMs: 60000, RateR: 10, RateS: 10,
		Clients: []Client{{
			ID: "spiky", RateFraction: 1,
			Arrival: ArrivalSpec{Process: ProcMMPP, OnMs: 100, OffMs: 100},
			Keys:    KeySpec{Dist: KeysUniform, Domain: 1024},
		}},
	}
	mc, err := Compile(mp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := mp.RateR * float64(mp.DurationMs)
	if dev := math.Abs(float64(len(mc.R))-want) / want; dev > 0.10 {
		t.Errorf("mmpp: %d tuples vs target %.0f — %.1f%% off, want within 10%%", len(mc.R), want, dev*100)
	}
}

// TestSpecJSONRoundTrip: compile(spec) and compile(parse(marshal(spec)))
// must be byte-identical — the property that makes checked-in spec files
// equivalent to in-process spec literals.
func TestSpecJSONRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		orig := propertySpec(seed)
		before, err := Compile(orig, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		data, err := orig.Marshal()
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		parsed, err := Parse(data)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		after, err := Compile(parsed, Options{})
		if err != nil {
			t.Fatalf("seed %d: recompile: %v", seed, err)
		}
		if err := sameWorkload(before, after); err != nil {
			t.Fatalf("seed %d: round-tripped spec compiles differently: %v", seed, err)
		}
		// And marshalling again is byte-stable.
		data2, err := parsed.Marshal()
		if err != nil {
			t.Fatalf("seed %d: remarshal: %v", seed, err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("seed %d: marshal not byte-stable across a parse round trip", seed)
		}
	}
}

// TestCompileDeterministic: two independent compilations of the same spec
// value must agree tuple for tuple and class for class.
func TestCompileDeterministic(t *testing.T) {
	a, err := Compile(propertySpec(9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(propertySpec(9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameWorkload(a, b); err != nil {
		t.Fatalf("same spec compiled twice differs: %v", err)
	}
	// A different seed must actually change the tuples.
	d, err := Compile(propertySpec(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sameWorkload(a, d) == nil {
		t.Fatal("seeds 9 and 10 compiled to identical workloads")
	}
}

// sameWorkload compares two compilations tuple-for-tuple.
func sameWorkload(a, b gen.Workload) error {
	if len(a.R) != len(b.R) || len(a.S) != len(b.S) {
		return fmt.Errorf("sizes differ: R %d vs %d, S %d vs %d", len(a.R), len(b.R), len(a.S), len(b.S))
	}
	for i := range a.R {
		if a.R[i] != b.R[i] {
			return fmt.Errorf("R[%d]: %+v vs %+v", i, a.R[i], b.R[i])
		}
	}
	for i := range a.S {
		if a.S[i] != b.S[i] {
			return fmt.Errorf("S[%d]: %+v vs %+v", i, a.S[i], b.S[i])
		}
	}
	return nil
}
