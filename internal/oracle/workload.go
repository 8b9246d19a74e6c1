package oracle

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/tuple"
	"repro/internal/workloadspec"
	"repro/internal/zipf"
)

// Conformance workload shapes. Each is small by design — the matrix
// multiplies them by algorithms, thread counts, state paths, and
// schedules, so the per-cell cost has to stay in the milliseconds — but
// each targets a distinct failure mode observed in related systems:
// skew breaks partition routing, high duplication breaks per-key state,
// boundary timestamps break arrival gating, and empty inputs break
// barrier/termination logic.
const (
	// WMicro is a plain streaming workload with mild duplication.
	WMicro = "micro"
	// WSkew draws keys from a Zipf(1.2) so radix partitions and JB
	// routing groups are heavily imbalanced.
	WSkew = "skew"
	// WHighDup joins a tiny key domain (~32 duplicates per key): long
	// hash chains, long sort runs, quadratic-ish match fan-out.
	WHighDup = "highdup"
	// WEmpty covers empty inputs: both sides, R only, or S only,
	// selected by the seed.
	WEmpty = "empty"
	// WBoundary places duplicate timestamps exactly on the window
	// boundary, at zero, and at ts == close (see internal/window for
	// the pinned [start, close) semantics).
	WBoundary = "boundary"
	// WBurst skews arrivals toward the window start (timestamp
	// Zipf 1.5): eager workers drain a flood then starve.
	WBurst = "burst"
	// WSpecMicro routes through the workload-spec compiler
	// (internal/workloadspec): a two-client mix — one constant-rate
	// client with Zipf keys, one bursty gamma client with uniform keys —
	// so the conformance matrix also certifies spec-compiled plans, not
	// just the hand-rolled generators.
	WSpecMicro = "specmicro"
)

// Workloads lists the conformance workload names in matrix order.
func Workloads() []string {
	return []string{WMicro, WSkew, WHighDup, WEmpty, WBoundary, WBurst, WSpecMicro}
}

// BuildWorkload materializes a named conformance workload from a seed.
// The same (name, seed) always yields the same tuples — the replay half
// of the seed-string contract.
func BuildWorkload(name string, seed uint64) (gen.Workload, error) {
	switch name {
	case WMicro:
		return gen.Micro(gen.MicroConfig{RateR: 8, RateS: 8, WindowMs: 50, Dupe: 2, Seed: seed}), nil
	case WSkew:
		return gen.MicroStatic(800, 800, 4, 1.2, seed), nil
	case WHighDup:
		return gen.MicroStatic(600, 600, 32, 0, seed), nil
	case WEmpty:
		w := gen.Workload{Name: WEmpty, WindowMs: 0, AtRest: true}
		full := gen.MicroStatic(64, 64, 4, 0, seed)
		switch seed % 3 {
		case 1:
			w.S = full.S // R empty
		case 2:
			w.R = full.R // S empty
		}
		return w, nil
	case WBoundary:
		return boundaryWorkload(seed), nil
	case WBurst:
		return gen.Micro(gen.MicroConfig{RateR: 12, RateS: 12, WindowMs: 40, Dupe: 4, TSSkew: 1.5, Seed: seed}), nil
	case WSpecMicro:
		return specMicroWorkload(seed)
	}
	return gen.Workload{}, fmt.Errorf("oracle: unknown workload %q (want one of %v)", name, Workloads())
}

// specMicroWorkload compiles the inline two-client spec at the given
// seed. Compilation is deterministic (workloadspec's contract), which is
// what lets a failing cell's seed string replay it.
func specMicroWorkload(seed uint64) (gen.Workload, error) {
	sp := &workloadspec.Spec{
		Version:  workloadspec.SpecVersion,
		Name:     WSpecMicro,
		Seed:     seed,
		WindowMs: 50,
		RateR:    8,
		RateS:    8,
		Clients: []workloadspec.Client{
			{
				ID: "steady", RateFraction: 0.5,
				Arrival: workloadspec.ArrivalSpec{Process: workloadspec.ProcConstant},
				Keys:    workloadspec.KeySpec{Dist: workloadspec.KeysZipf, Domain: 64, Theta: 0.9},
			},
			{
				ID: "bursty", RateFraction: 0.5,
				Arrival: workloadspec.ArrivalSpec{Process: workloadspec.ProcGamma, CV: 2},
				Keys:    workloadspec.KeySpec{Dist: workloadspec.KeysUniform, Domain: 64},
			},
		},
	}
	w, err := workloadspec.Compile(sp, workloadspec.Options{})
	if err != nil {
		return gen.Workload{}, fmt.Errorf("oracle: specmicro: %w", err)
	}
	return w, nil
}

// boundaryWorkload builds the window-edge stress shape: a 16 ms window
// whose tuples pile up at ts 0, exactly on the last in-window slot
// (close-1), and exactly at the close itself, plus a lone key that
// matches nothing. Duplicate timestamps on the boundary are the
// order-dependent case single-threaded tests never vary.
func boundaryWorkload(seed uint64) gen.Workload {
	const w = 16
	key := func(i uint64) int32 { return int32(zipf.Mix64(seed^i) % 8) }
	r := tuple.Relation{
		{TS: 0, Key: key(0), Payload: 0},
		{TS: 0, Key: key(0), Payload: 1},
		{TS: 0, Key: key(1), Payload: 2},
		{TS: w / 2, Key: key(2), Payload: 3},
		{TS: w - 1, Key: key(3), Payload: 4},
		{TS: w - 1, Key: key(3), Payload: 5},
		{TS: w, Key: key(4), Payload: 6},
		{TS: w, Key: key(4), Payload: 7},
	}
	s := tuple.Relation{
		{TS: 0, Key: key(0), Payload: 100},
		{TS: w / 2, Key: key(2), Payload: 101},
		{TS: w / 2, Key: key(2), Payload: 102},
		{TS: w - 1, Key: key(3), Payload: 103},
		{TS: w, Key: key(4), Payload: 104},
		{TS: w, Key: 127, Payload: 105}, // matches nothing: key() < 8
	}
	return gen.Workload{Name: WBoundary, R: r, S: s, WindowMs: w}
}
