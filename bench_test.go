package iawj

// This file is the benchmark harness required by the study: one testing.B
// benchmark per table and figure of the evaluation section, each executing
// the exp package's regeneration of that experiment at a bench-friendly
// scale. Whole-join numbers per algorithm come from the harness in
// benchmark/ (bash benchmark/run.sh). Run everything with
//
//	go test -bench=. -benchmem
//
// and regenerate any experiment's full printed series with
//
//	go run ./cmd/iawjbench -exp fig9 [-scale 0.1 -window 1000]
//
// The per-iteration custom metrics (tuples/ms, matches) make regressions
// visible without reading the printed tables.

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

func BenchmarkTable3WorkloadStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Table3(benchOpts())
	}
}

func BenchmarkTable5CountersPerTuple(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Table5(benchOpts())
	}
}

func BenchmarkTable6ResourceUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Table6(benchOpts())
	}
}

func BenchmarkFigure3TimeDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure3(benchOpts())
	}
}

func BenchmarkFigure4DecisionTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure4(benchOpts())
	}
}

func BenchmarkFigure5ThroughputLatency(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		rows := exp.Figure5(benchOpts())
		tput = rows[len(rows)-1].Result.ThroughputTPM
	}
	b.ReportMetric(tput, "tuples/ms")
}

func BenchmarkFigure6Progressiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure6(benchOpts())
	}
}

func BenchmarkFigure7Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure7(benchOpts())
	}
}

func BenchmarkFigure8CacheProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure8(benchOpts())
	}
}

func BenchmarkFigure9ArrivalRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure9(benchOpts())
	}
}

func BenchmarkFigure10RelativeRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure10(benchOpts())
	}
}

func BenchmarkFigure11KeyDuplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure11(benchOpts())
	}
}

func BenchmarkFigure12ArrivalSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure12(benchOpts())
	}
}

func BenchmarkFigure13KeySkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure13(benchOpts())
	}
}

func BenchmarkFigure14WindowLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure14(benchOpts())
	}
}

func BenchmarkFigure15SortStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure15(benchOpts())
	}
}

func BenchmarkFigure16GroupSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure16(benchOpts())
	}
}

func BenchmarkFigure18RadixBits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure18(benchOpts())
	}
}

func BenchmarkFigure19aTopDown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure19a(benchOpts())
	}
}

func BenchmarkFigure19bMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure19b(benchOpts())
	}
}

func BenchmarkFigure20Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Figure20(benchOpts())
	}
}

func BenchmarkFigure21SIMD(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows := exp.Figure21(benchOpts())
		speedup = rows[0].Speedup
	}
	b.ReportMetric(speedup, "simd-speedup")
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

// BenchmarkRelatedHandshake regenerates the Section 6 related-work
// validation at bench scale.
func BenchmarkRelatedHandshake(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Related(benchOpts())
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
