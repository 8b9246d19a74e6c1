// Quickstart: join two synthetic streams over one window with a lazy and
// an eager algorithm and compare the three performance metrics the study
// measures (throughput, p95 latency, progressiveness).
package main

import (
	"fmt"
	"log"

	iawj "repro"
)

func main() {
	// A window with a low arrival rate on both streams and four
	// duplicates per key — the paper's Micro workload at its "low rate"
	// point, where eager algorithms shine: the CPUs are underutilized, so
	// processing eagerly costs nothing and wins latency.
	w := iawj.Micro(iawj.MicroConfig{
		RateR:    100,
		RateS:    100,
		WindowMs: 200, // scaled-down window; raise to 1000 for paper scale
		Dupe:     4,
		Seed:     1,
	})
	fmt.Printf("workload: |R|=%d |S|=%d window=%dms\n", len(w.R), len(w.S), w.WindowMs)
	fmt.Printf("expected matches: %d\n\n", iawj.ExpectedMatches(w.R, w.S))

	for _, algo := range []string{"NPJ", "SHJ_JM"} {
		res, err := iawj.JoinWorkload(w, iawj.Config{
			Algorithm: algo,
			Threads:   4,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%s):\n", algo, kind(algo))
		fmt.Printf("  matches      %d\n", res.Matches)
		fmt.Printf("  throughput   %.1f tuples/ms\n", res.ThroughputTPM)
		fmt.Printf("  p95 latency  %d ms\n", res.LatencyP95Ms)
		fmt.Printf("  50%% matches by %d ms\n\n", res.TimeToFrac(0.5))
	}

	fmt.Println("The lazy algorithm batches the whole window; the eager one")
	fmt.Println("delivers matches as tuples arrive — compare the latency and")
	fmt.Println("progressiveness numbers above.")
}

func kind(algo string) string {
	for _, l := range iawj.LazyAlgorithms() {
		if l == algo {
			return "lazy"
		}
	}
	return "eager"
}
