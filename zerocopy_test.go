package iawj

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/window"
)

// gappyStreams returns two multi-window streams with two silent stretches,
// so session windows open at non-zero, non-aligned instants.
func gappyStreams(seed uint64) (r, s Relation) {
	w := Micro(MicroConfig{RateR: 12, RateS: 12, WindowMs: 400, Dupe: 4, Seed: seed})
	keep := func(rel Relation) Relation {
		var out Relation
		for _, x := range rel {
			if (x.TS >= 150 && x.TS < 200) || (x.TS >= 300 && x.TS < 330) {
				continue
			}
			out = append(out, x)
		}
		return out
	}
	return keep(w.R), keep(w.S)
}

// rebasedClone is what the windowed driver used to hand each join: a copy
// of the window's tuples with timestamps relative to the window start.
func rebasedClone(rel Relation, start int64) Relation {
	out := rel.Clone()
	for i := range out {
		out[i].TS -= start
	}
	return out
}

var zeroCopySpecs = []WindowSpec{
	{Kind: Tumbling, LengthMs: 100},
	{Kind: Sliding, LengthMs: 120, SlideMs: 50},
	{Kind: Session, GapMs: 10},
}

// TestWindowOffsetEqualsRebasedCopy is the metamorphic check behind the
// zero-copy driver: joining a window's slices of the caller's streams in
// place, with the window start as timestamp origin, must emit exactly what
// Join emits on a cloned-and-rebased pair — same pairs, same
// window-relative timestamps — for every algorithm and window kind, at
// rest and under paced, perturbed arrival. And the whole driver must emit
// the union of its windows.
func TestWindowOffsetEqualsRebasedCopy(t *testing.T) {
	r, s := gappyStreams(7)
	schedules := map[string]func(cfg *Config, seed uint64){
		"atrest": func(cfg *Config, _ uint64) { cfg.AtRest = true },
		"paced": func(cfg *Config, seed uint64) {
			cfg.NsPerSimMs = 10e3
			cfg.WrapClock = func(src ClockSource) ClockSource {
				return clock.Perturb(src, clock.PerturbConfig{Seed: seed})
			}
		},
	}
	for _, alg := range Algorithms() {
		for si, spec := range zeroCopySpecs {
			for name, schedule := range schedules {
				t.Run(fmt.Sprintf("%s/%s/%s", alg, spec.Kind, name), func(t *testing.T) {
					pairs, err := window.AssignPair(r, s, spec)
					if err != nil {
						t.Fatal(err)
					}
					cfg := Config{Algorithm: alg, Threads: 2, Pool: NewStatePool()}
					schedule(&cfg, uint64(si+1))

					var union []JoinResult
					offsets := 0
					for i, p := range pairs {
						if len(p.R) == 0 || len(p.S) == 0 {
							continue
						}
						if p.Window.Start != 0 {
							offsets++
						}
						wcfg := cfg
						wcfg.WindowMs = p.Window.Length()
						inPlace, copied := NewCollectResults(), NewCollectResults()
						wcfg.Emit = inPlace.Emit
						if _, err := join(p.R, p.S, wcfg, p.Window.Start, nil); err != nil {
							t.Fatal(err)
						}
						wcfg.Emit = copied.Emit
						if _, err := Join(rebasedClone(p.R, p.Window.Start), rebasedClone(p.S, p.Window.Start), wcfg); err != nil {
							t.Fatal(err)
						}
						got, want := inPlace.Results(), copied.Results()
						if !slices.Equal(got, want) {
							t.Fatalf("window %d [%d,%d): in-place join emitted %d results, rebased copy %d, or they differ",
								i, p.Window.Start, p.Window.End, len(got), len(want))
						}
						if len(want) > 0 && want[len(want)-1].TS >= p.Window.Length() {
							t.Fatalf("window %d: emitted timestamp %d is not window-relative", i, want[len(want)-1].TS)
						}
						union = append(union, want...)
					}
					if offsets == 0 {
						t.Fatal("no window starts past zero: the offset path was not exercised")
					}

					all := NewCollectResults()
					cfg.Emit = all.Emit
					if _, err := JoinWindowedParallel(r, s, spec, cfg, 2); err != nil {
						t.Fatal(err)
					}
					whole := NewCollectResults()
					for _, jr := range union {
						whole.Emit(jr)
					}
					if !slices.Equal(all.Results(), whole.Results()) {
						t.Fatalf("driver emitted %d results, its windows %d, or they differ", len(all.Results()), len(union))
					}
				})
			}
		}
	}
}

// TestWindowedJoinLeavesInputsUntouched: the per-window copy existed to
// keep the caller's streams intact; without it, every algorithm must read
// its inputs and write only its own state, even with overlapping windows
// in flight at once.
func TestWindowedJoinLeavesInputsUntouched(t *testing.T) {
	r, s := gappyStreams(9)
	r0, s0 := r.Clone(), s.Clone()
	spec := WindowSpec{Kind: Sliding, LengthMs: 120, SlideMs: 50}
	for _, alg := range append(Algorithms(), AdaptiveName) {
		for _, simd := range []bool{false, true} {
			cfg := Config{Algorithm: alg, Threads: 2, AtRest: true, SIMD: simd}
			if _, err := JoinWindowedParallel(r, s, spec, cfg, 3); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(r, r0) || !slices.Equal(s, s0) {
				t.Fatalf("%s (simd=%v) wrote to the caller's streams", alg, simd)
			}
		}
	}
}

// TestWindowedDriverSteadyStateAllocs: over a warmed pool, a settled window
// of a sliding sweep allocates less than 8 KB whatever the algorithm,
// ADAPTIVE's profile included — the Result the caller keeps, the run's
// goroutines and a few words of bookkeeping. The tuples, the kernel state,
// the metrics collector and the profile scratch all come from the pool
// (a window side here is 128 KB, a collector 33 KB).
func TestWindowedDriverSteadyStateAllocs(t *testing.T) {
	w := Micro(MicroConfig{RateR: 40, RateS: 40, WindowMs: 2100, Dupe: 10, Seed: 3})
	spec := WindowSpec{Kind: Sliding, LengthMs: 200, SlideMs: 100}
	for _, alg := range append(Algorithms(), AdaptiveName) {
		cfg := Config{Algorithm: alg, Threads: 2, AtRest: true, Pool: NewStatePool()}
		var windows int
		sweep := func() {
			results, err := JoinWindowedParallel(w.R, w.S, spec, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			windows = len(results)
		}
		sweep() // every window past the first two already runs on released state
		sweep()
		least := ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&before)
			sweep()
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; d < least {
				least = d
			}
		}
		if windows < 20 {
			t.Fatalf("sweep has %d windows, want at least 20", windows)
		}
		const bound = 8 << 10
		if perWindow := least / uint64(windows); perWindow >= bound {
			t.Errorf("%s: a settled window allocates %d B, want under %d", alg, perWindow, bound)
		} else {
			t.Logf("%s: %d B per settled window", alg, perWindow)
		}
	}
}

// TestWindowOffsetArrivalIsWindowRelative: a window that opens at t=5000
// replays its own 100 ms, not five seconds of silence first. Every arrival
// reader — the eager gate, the lazy window wait, handshake's Avail — must
// subtract the window start, or the join's latencies would be in the
// thousands of milliseconds.
func TestWindowOffsetArrivalIsWindowRelative(t *testing.T) {
	const start, length = 5000, 100
	w := Micro(MicroConfig{RateR: 5, RateS: 5, WindowMs: length, Dupe: 4, Seed: 5})
	shift := func(rel Relation) Relation {
		out := rel.Clone()
		for i := range out {
			out[i].TS += start
		}
		return out
	}
	r, s := shift(w.R), shift(w.S)
	for _, alg := range append(Algorithms(), "HANDSHAKE", AdaptiveName) {
		cfg := Config{Algorithm: alg, Threads: 2, WindowMs: length, NsPerSimMs: 20e3}
		res, err := join(r, s, cfg, start, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != ExpectedMatches(r, s) {
			t.Fatalf("%s: %d matches, want %d", alg, res.Matches, ExpectedMatches(r, s))
		}
		if res.LatencyMaxMs >= start/2 {
			t.Fatalf("%s: worst latency %d ms: arrival was gated on absolute timestamps", alg, res.LatencyMaxMs)
		}
	}
}
