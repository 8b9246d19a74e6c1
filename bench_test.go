package iawj

// This file is the benchmark harness required by the study: one testing.B
// sub-benchmark per table and figure of the evaluation section, each
// executing the exp package's regeneration of that experiment at a
// bench-friendly scale. Whole-join numbers per algorithm come from the
// harness in benchmark/ (bash benchmark/run.sh). Run everything with
//
//	go test -bench=. -benchmem
//
// and regenerate any experiment's full printed series with
//
//	go run ./cmd/iawjbench -exp fig9 [-scale 0.1 -window 1000]
//
// The custom metrics, Figure 5's tuples/ms and Figure 21's simd-speedup,
// make regressions visible without reading the printed tables.

import (
	"io"
	"testing"

	"repro/internal/exp"
	"repro/internal/gen"
)

// benchOpts shrinks the experiments so a full -bench=. pass stays fast;
// the shapes (who wins, where crossovers fall) are preserved by keeping
// the paper's rate axes and only scaling windows/sizes.
func benchOpts() exp.Options {
	return exp.Options{
		W:             io.Discard,
		Threads:       2,
		Scale:         0.002,
		MicroWindowMs: 3,
		Seed:          42,
	}
}

// BenchmarkExperiments runs every table and figure, one sub-benchmark per
// experiment id.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range exp.IDs() {
		b.Run(id, func(b *testing.B) {
			var tab exp.Table
			for i := 0; i < b.N; i++ {
				var err error
				if tab, err = exp.Run(id, benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
			switch id {
			case "fig5": // the last cell's throughput
				b.ReportMetric(tab.Rows[len(tab.Rows)-1][tab.Col("tput(t/ms)")].(float64), "tuples/ms")
			case "fig21": // the first algorithm's speedup
				b.ReportMetric(tab.Rows[0][tab.Col("speedup")].(float64), "simd-speedup")
			}
		})
	}
}

// BenchmarkHandshakeBaseline quantifies the related-work validation: the
// handshake join's per-tuple pipeline hops cost orders of magnitude of
// throughput next to the eight studied algorithms (whose whole-join
// numbers come from benchmark/).
func BenchmarkHandshakeBaseline(b *testing.B) {
	w := MicroStatic(2_000, 2_000, 8, 0, 42)
	for i := 0; i < b.N; i++ {
		if _, err := Join(w.R, w.S, Config{Algorithm: "HANDSHAKE", Threads: 2, AtRest: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(w.R)+len(w.S)) * 16)
}

// BenchmarkAblationPMJSpill compares PMJ's modernized in-memory runs with
// the original disk-spilled runs.
func BenchmarkAblationPMJSpill(b *testing.B) {
	w := MicroStatic(50_000, 50_000, 8, 0, 42)
	dir := b.TempDir()
	for _, cfg := range []struct {
		name  string
		spill string
	}{{"memory", ""}, {"disk", dir}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Join(w.R, w.S, Config{
					Algorithm: "PMJ_JM", Threads: 2, AtRest: true,
					SortStepFrac: 0.1, SpillDir: cfg.spill,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(w.R)+len(w.S)) * 16)
		})
	}
}

// BenchmarkWorkloadGeneration tracks the generator costs so experiment
// setup stays cheap relative to the joins being measured.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, name := range WorkloadNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := WorkloadByName(name, gen.Scale(0.002), 42); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("Micro", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Micro(MicroConfig{RateR: 1000, RateS: 1000, WindowMs: 10, Dupe: 4, Seed: 42})
		}
	})
}

// BenchmarkJoinFixedCost is a warm join's fixed cost per call: a
// count-only Join of 1k × 1k unique keys at rest, two threads, over a
// pool that has run it ten times — enough for the pool to have met the
// workers' joint demand — one sub-benchmark per column, with allocs/op.
func BenchmarkJoinFixedCost(b *testing.B) {
	w := MicroStatic(1000, 1000, 1, 0, 42)
	for _, alg := range append(Algorithms(), AdaptiveName) {
		b.Run(alg, func(b *testing.B) {
			cfg := Config{Algorithm: alg, Threads: 2, AtRest: true, Pool: NewStatePool()}
			join := func() {
				if _, err := Join(w.R, w.S, cfg); err != nil {
					b.Fatal(err)
				}
			}
			for range 10 {
				join()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				join()
			}
		})
	}
}
