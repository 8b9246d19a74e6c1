package oracle

import (
	"fmt"
	"slices"

	iawj "repro"
	"repro/internal/clock"
	"repro/internal/ingest"
	"repro/internal/tuple"
	"repro/internal/zipf"
)

// Outcome is the evidence from one conformance cell: what the algorithm
// emitted, what the oracle expected, and the metric-side match count.
type Outcome struct {
	Case    Case
	Got     Digest
	Want    Digest
	Matches int64 // the run's metrics-reported match count
}

// runJoin executes the case's algorithm over the given inputs and digests
// its emitted output. It is the one place the conformance harness touches
// the production API, so differential and metamorphic checks exercise the
// identical entry path users do. A pooled case first runs the same join on
// its pool and discards the output, so the checked run joins on state the
// first one released.
func runJoin(c Case, r, s tuple.Relation, windowMs int64, atRest bool) (Digest, int64, error) {
	sink := NewSink()
	cfg := c.config(sink.Emit, windowMs, atRest)
	if c.Pooled {
		cfg.Pool = iawj.NewStatePool()
		warm := cfg
		warm.Emit = func(tuple.JoinResult) {}
		if _, err := iawj.Join(r, s, warm); err != nil {
			return Digest{}, 0, fmt.Errorf("warming the pool: %w", err)
		}
	}
	res, err := iawj.Join(r, s, cfg)
	if err != nil {
		return Digest{}, 0, err
	}
	return sink.Digest(), res.Matches, nil
}

// config is the production configuration of the case, emitting into emit.
func (c Case) config(emit func(tuple.JoinResult), windowMs int64, atRest bool) iawj.Config {
	cfg := iawj.Config{
		Algorithm: c.Algorithm,
		Threads:   c.Threads,
		WindowMs:  windowMs,
		AtRest:    atRest,
		BatchSize: c.BatchSize,
		Emit:      emit,
	}
	if c.Perturb {
		seed := zipf.Mix64(c.Seed ^ 0xadce11)
		cfg.WrapClock = func(src iawj.ClockSource) iawj.ClockSource {
			return clock.Perturb(src, clock.PerturbConfig{Seed: seed})
		}
	}
	return cfg
}

// inputs materializes the case's workload with its ingest jitter applied.
// Both the algorithm under test and the reference oracle consume the
// returned relations, so jitter shifts the schedule without shifting the
// ground truth.
func (c Case) inputs() (r, s tuple.Relation, windowMs int64, atRest bool, err error) {
	w, err := BuildWorkload(c.Workload, c.Seed)
	if err != nil {
		return nil, nil, 0, false, err
	}
	r, s = w.R, w.S
	if c.JitterMs > 0 {
		r = ingest.JitterTS(r, c.JitterMs, zipf.Mix64(c.Seed^0x0ace))
		s = ingest.JitterTS(s, c.JitterMs, zipf.Mix64(c.Seed^0x1bdf))
	}
	return r, s, max(w.WindowMs, r.MaxTS(), s.MaxTS()), w.AtRest, nil
}

// RunCase executes one conformance cell and verifies it against the
// reference oracle. A non-nil error always embeds the case's seed string;
// `iawjconform -seed <string>` replays it.
func RunCase(c Case) (Outcome, error) {
	r, s, windowMs, atRest, err := c.inputs()
	if err != nil {
		return Outcome{}, fmt.Errorf("[%s] %w", c, err)
	}
	want := Reference(r, s)
	got, matches, err := runJoin(c, r, s, windowMs, atRest)
	o := Outcome{Case: c, Got: got, Want: want, Matches: matches}
	if err != nil {
		return o, fmt.Errorf("[%s] run: %w", c, err)
	}
	if got.Full.Count != want.Full.Count {
		return o, fmt.Errorf("[%s] cardinality: emitted %d results, oracle %d", c, got.Full.Count, want.Full.Count)
	}
	if matches != want.Full.Count {
		return o, fmt.Errorf("[%s] metrics: reported %d matches, oracle %d", c, matches, want.Full.Count)
	}
	if got != want {
		return o, fmt.Errorf("[%s] fingerprint: emitted %s, oracle %s (same cardinality, different pairs)", c, got.Full, want.Full)
	}
	return o, nil
}

// Schedule is one schedule-perturbation setting of the matrix.
type Schedule struct {
	JitterMs int64
	Perturb  bool
}

// Matrix spans the differential sweep: the cross product of its axes,
// minus cells that differ only in knobs inert for the algorithm (the
// eager pull batch does not exist on the lazy side).
type Matrix struct {
	Algorithms []string
	Threads    []int
	Workloads  []string
	Seeds      []uint64
	Pooled     []bool
	Batches    []int // eager pull batch sizes; 0 = default, 1 = scalar
	Schedules  []Schedule
}

// FullMatrix is the complete differential matrix of the conformance
// subsystem: all 8 studied algorithms × {1,2,4,8} threads × every
// conformance workload × warm and fresh pools × batched and scalar
// eager paths × unperturbed and adversarial schedules.
func FullMatrix() Matrix {
	return Matrix{
		Algorithms: iawj.Algorithms(),
		Threads:    []int{1, 2, 4, 8},
		Workloads:  Workloads(),
		Seeds:      []uint64{1},
		Pooled:     []bool{true, false},
		Batches:    []int{0, 1},
		Schedules:  []Schedule{{}, {JitterMs: 2, Perturb: true}},
	}
}

// SmokeMatrix is the CI-gate subset: every algorithm and every workload
// stays covered, but thread counts, state paths, and schedules are
// sampled so the sweep finishes within the ~10 s budget of the check
// pipeline even under the race detector.
func SmokeMatrix() Matrix {
	return Matrix{
		Algorithms: iawj.Algorithms(),
		Threads:    []int{1, 4},
		Workloads:  Workloads(),
		Seeds:      []uint64{1},
		Pooled:     []bool{true},
		Batches:    []int{0},
		Schedules:  []Schedule{{}, {JitterMs: 1, Perturb: true}},
	}
}

// eagerPull reports whether alg has a pull loop, which honours BatchSize.
func eagerPull(alg string) bool { return slices.Contains(iawj.EagerAlgorithms(), alg) }

// Cases expands the matrix into its cell list, skipping batch variants
// for lazy algorithms (the knob is inert there: the cell would duplicate
// the default-batch one).
func (m Matrix) Cases() []Case {
	var out []Case
	for _, alg := range m.Algorithms {
		batches := m.Batches
		if !eagerPull(alg) || len(batches) == 0 {
			batches = batches[:min(1, len(batches))]
			if len(batches) == 0 {
				batches = []int{0}
			}
		}
		for _, th := range m.Threads {
			for _, wl := range m.Workloads {
				for _, seed := range m.Seeds {
					for _, pooled := range m.Pooled {
						for _, b := range batches {
							for _, sch := range m.Schedules {
								out = append(out, Case{
									Algorithm: alg,
									Workload:  wl,
									Threads:   th,
									Seed:      seed,
									Pooled:    pooled,
									BatchSize: b,
									JitterMs:  sch.JitterMs,
									Perturb:   sch.Perturb,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// RunMatrix sweeps every cell, reporting each outcome; report may be nil.
// It returns the cell and failure counts rather than aborting on first
// mismatch — a conformance report that shows *which* cells fail localizes
// the bug (all workloads? only skew? only perturbed schedules?).
func RunMatrix(m Matrix, report func(Outcome, error)) (ran, failed int) {
	for _, c := range m.Cases() {
		o, err := RunCase(c)
		ran++
		if err != nil {
			failed++
		}
		if report != nil {
			report(o, err)
		}
	}
	return ran, failed
}
