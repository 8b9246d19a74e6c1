package iawj

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestPoolBalance: a run gives back everything it took from the pool —
// the algorithm's buffers, tables and partitioners, the frame with its
// collector, the result batches — whether it joined cleanly or failed. Over
// one pool, every column and HANDSHAKE, at rest and paced, counting and
// materializing, and PMJ_JM spilling to a directory and failing to spill
// to a missing one, make nine calls of one shape: a cold one and two warm
// ones at the process's GOMAXPROCS, where the workers overlap as they do
// in use, then at GOMAXPROCS 1 one more and five measured ones. Workers
// that overlap at random hand each other's pooled state around at
// random, and a table or a partitioner that serves a larger share than
// it did before grows in use and comes back larger; at GOMAXPROCS 1
// every call hands it out as the one before did.
//
// A measured call the pool met without a miss retains exactly what the
// call before it left. With Emit the only growth allowed is whole result
// batches (MatchBatch results each), one per result-batch miss: the
// pool keeps every batch the outbox has ever needed parked at once, and a
// slow consumer now and then needs one more. A miss of any other kind means
// the call met a demand no call before it had — one more PMJ seal under
// pacing, two PRJ workers wanting a table of one size class at once —
// and the pool keeps what it allocated, so the next call does not miss
// it again: a kind that misses in all five did not come back. Every call
// finds the same matches, and every call that returns a Result records
// in Result.Pool exactly the hits and misses the pool counted during it:
// nothing the call takes escapes its record.
func TestPoolBalance(t *testing.T) {
	w := Micro(MicroConfig{RateR: 20, RateS: 20, WindowMs: 100, Dupe: 4, Seed: 7})
	batchBytes := int64(core.MatchBatch) * int64(unsafe.Sizeof(JoinResult{}))
	type shape struct {
		name    string
		cfg     Config
		failing bool
	}
	var shapes []shape
	for _, alg := range append(Algorithms(), AdaptiveName, "HANDSHAKE") {
		for _, paced := range []bool{false, true} {
			for _, emit := range []bool{false, true} {
				cfg := Config{Algorithm: alg, Threads: 2, AtRest: !paced, NsPerSimMs: 2000}
				if emit {
					var sum int64
					cfg.Emit = func(jr JoinResult) { sum += jr.TS }
				}
				shapes = append(shapes, shape{name: fmt.Sprintf("%s/paced=%v/emit=%v", alg, paced, emit), cfg: cfg})
			}
		}
	}
	shapes = append(shapes,
		shape{name: "PMJ_JM/spill", cfg: Config{Algorithm: "PMJ_JM", Threads: 2, AtRest: true, SpillDir: t.TempDir()}},
		shape{name: "PMJ_JM/spill=missing", cfg: Config{Algorithm: "PMJ_JM", Threads: 2, AtRest: true, SpillDir: filepath.Join(t.TempDir(), "missing")}, failing: true})

	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			cfg := sh.cfg
			cfg.Pool = NewStatePool()
			var matches int64
			var prev metrics.PoolStats
			var missed [metrics.NumPoolKinds]int
			const unmeasured, measured = 4, 5
			for call := range unmeasured + measured {
				if call == unmeasured-1 {
					runtime.GOMAXPROCS(1)
				}
				res, err := Join(w.R, w.S, cfg)
				switch {
				case sh.failing && err == nil:
					t.Fatal("the join did not fail")
				case !sh.failing && err != nil:
					t.Fatal(err)
				case call == 0:
					matches = res.Matches
				case res.Matches != matches:
					t.Fatalf("call %d found %d matches, the cold call %d", call, res.Matches, matches)
				}
				now := cfg.Pool.Stats()
				if d := now.Since(prev); err == nil && (d.Hits != res.Pool.Hits || d.Misses != res.Pool.Misses) {
					t.Errorf("call %d: the pool counted hits %v misses %v, the run's record hits %v misses %v",
						call, d.Hits, d.Misses, res.Pool.Hits, res.Pool.Misses)
				}
				if call >= unmeasured {
					d := now.Since(prev)
					batches := d.Misses[metrics.PoolResults]
					d.Misses[metrics.PoolResults] = 0
					if d.Misses != (metrics.PoolStats{}).Misses {
						t.Logf("call %d missed %v", call, d.Misses)
						for k, n := range d.Misses {
							if n > 0 {
								missed[k]++
							}
						}
					} else if grown := now.RetainedBytes - prev.RetainedBytes; grown != batches*batchBytes {
						t.Errorf("call %d: the pool retains %d B, %d B after the call before; want %d result batches more (%d B)",
							call, now.RetainedBytes, prev.RetainedBytes, batches, batches*batchBytes)
					}
				}
				prev = now
			}
			for k, n := range missed {
				if n == measured {
					t.Errorf("every measured call missed %s: what a call takes of it does not come back", metrics.PoolKind(k))
				}
			}
		})
	}
}
