// Ad campaign analytics: the YSB-style workload — join a static campaigns
// table against a fast advertisement-event stream and keep a windowed
// count of events per campaign. One side is at rest with unique keys and
// the other arrives at ~10k tuples/ms, so throughput is the objective and
// the hash-based lazy algorithms dominate; this example races the studied
// algorithms and reports which one wins.
package main

import (
	"fmt"
	"log"

	iawj "repro"
)

func main() {
	w := iawj.YSB(0.02, 3)
	fmt.Printf("YSB workload: |R|=%d campaigns (at rest), |S|=%d ad events, window=%dms\n\n",
		len(w.R), len(w.S), w.WindowMs)

	type entry struct {
		algo string
		res  iawj.Result
	}
	var results []entry
	for _, algo := range iawj.Algorithms() {
		res, err := iawj.JoinWorkload(w, iawj.Config{
			Algorithm: algo,
			Threads:   4,
		})
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, entry{algo, res})
	}

	fmt.Printf("%-8s %14s %14s %12s\n", "algo", "tput(t/ms)", "p95 lat(ms)", "matches")
	best := results[0]
	for _, e := range results {
		fmt.Printf("%-8s %14.1f %14d %12d\n",
			e.algo, e.res.ThroughputTPM, e.res.LatencyP95Ms, e.res.Matches)
		if e.res.ThroughputTPM > best.res.ThroughputTPM {
			best = e
		}
	}
	fmt.Printf("\nhighest throughput: %s (%.1f tuples/ms)\n", best.algo, best.res.ThroughputTPM)

	// Cross-check against the decision tree's recommendation for a
	// throughput objective.
	advice := iawj.Advise(iawj.ProfileWorkload(w, 4, iawj.OptThroughput))
	fmt.Printf("decision tree recommends: %s\n", advice.Algorithm)
}
