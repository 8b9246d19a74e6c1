// Stock analysis: the paper's motivating Stock workload — join a traded
// stream with a quotes stream over the same stock id within one window to
// compute per-stock turnover. Arrival rates are low and spiky, so the
// decision tree recommends the eager SHJ_JM, which delivers matches with
// millisecond latency while lazy algorithms sit in their wait phase.
package main

import (
	"fmt"
	"log"

	iawj "repro"
)

func main() {
	// Synthesize the Stock workload equivalent (Table 3 statistics:
	// vR=61, vS=77 tuples/ms, dupe ~68/79, spiky arrivals).
	w := iawj.Stock(0.05, 7)
	fmt.Printf("Stock workload: |R|=%d trades, |S|=%d quotes, window=%dms\n",
		len(w.R), len(w.S), w.WindowMs)

	// Ask the decision tree first.
	profile := iawj.ProfileWorkload(w, 4, iawj.OptLatency)
	advice := iawj.Advise(profile)
	fmt.Printf("decision tree picks: %s\n", advice.Algorithm)
	for _, step := range advice.Path {
		fmt.Printf("  - %s\n", step)
	}

	// Compute per-stock turnover (count of trade-quote matches per key)
	// while the join runs, via the Emit callback. Emit is never entered
	// concurrently, so the map and the counter need no lock.
	turnover := make(map[int32]int64)
	var matches int64
	res, err := iawj.JoinWorkload(w, iawj.Config{
		Algorithm: advice.Algorithm,
		Threads:   4,
		Emit: func(jr iawj.JoinResult) {
			matches++
			turnover[jr.Key]++
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\njoined %d trade-quote pairs across %d stocks\n", matches, len(turnover))
	fmt.Printf("p95 latency: %d ms (eager joins deliver while the window is open)\n", res.LatencyP95Ms)
	fmt.Printf("half of all matches were out by %d ms into the window\n", res.TimeToFrac(0.5))

	// Top stocks by turnover.
	type kv struct {
		key int32
		n   int64
	}
	var top []kv
	for k, n := range turnover {
		top = append(top, kv{k, n})
	}
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].n > top[i].n {
				top[i], top[j] = top[j], top[i]
			}
		}
		if i == 4 {
			break
		}
	}
	fmt.Println("\nbusiest stocks (by matched trade-quote pairs):")
	for i := 0; i < len(top) && i < 5; i++ {
		fmt.Printf("  stock %6d: %d pairs\n", top[i].key, top[i].n)
	}
}
