// Advisor: walk the paper's decision tree (Figure 4) across a grid of
// workload shapes and show how the recommendation shifts with arrival
// rate, key duplication, skew, and the optimization objective — then spot
// check one cell by racing the recommended algorithm against the field.
package main

import (
	"fmt"
	"log"

	iawj "repro"
)

func main() {
	fmt.Println("decision-tree recommendations across the workload grid:")
	fmt.Printf("%-10s %-8s %-10s %-16s -> %s\n", "rate", "dupe", "skew", "objective", "algorithm")

	type cell struct {
		rate float64
		dupe float64
		skew float64
		obj  iawj.Objective
	}
	grid := []cell{
		{100, 1, 0, iawj.OptLatency},
		{100, 100, 0, iawj.OptThroughput},
		{12800, 1, 0, iawj.OptLatency},
		{12800, 1, 0, iawj.OptThroughput},
		{12800, 100, 0, iawj.OptThroughput},
		{25600, 1, 0, iawj.OptThroughput},
		{25600, 1, 1.4, iawj.OptThroughput},
		{25600, 100, 0, iawj.OptThroughput},
	}
	for _, c := range grid {
		adv := iawj.Advise(iawj.Profile{
			RateR: c.rate, RateS: c.rate,
			Dupe: c.dupe, KeySkew: c.skew,
			Tuples: 1 << 22, Cores: 8, Objective: c.obj,
		})
		fmt.Printf("%-10.0f %-8.0f %-10.1f %-16s -> %s\n", c.rate, c.dupe, c.skew, c.obj, adv.Algorithm)
	}

	// Spot-check the "medium rate, high duplication" cell, where the
	// paper found PMJ_JB best across all three metrics.
	fmt.Println("\nspot check: medium rate, high key duplication")
	w := iawj.Micro(iawj.MicroConfig{RateR: 6400, RateS: 6400, WindowMs: 50, Dupe: 100, Seed: 9})
	adv := iawj.Advise(iawj.ProfileWorkload(w, 4, iawj.OptProgressiveness))
	fmt.Printf("recommended: %s\n", adv.Algorithm)

	fmt.Printf("%-8s %14s %12s\n", "algo", "tput(t/ms)", "t50%(ms)")
	for _, algo := range iawj.Algorithms() {
		res, err := iawj.JoinWorkload(w, iawj.Config{Algorithm: algo, Threads: 4})
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		if algo == adv.Algorithm {
			marker = "  <- recommended"
		}
		fmt.Printf("%-8s %14.1f %12d%s\n", algo, res.ThroughputTPM, res.TimeToFrac(0.5), marker)
	}
}
