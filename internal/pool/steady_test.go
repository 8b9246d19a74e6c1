package pool_test

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/lazy"
	"repro/internal/pool"
	"repro/internal/tuple"
)

// stream returns n time-ordered tuples with dupe duplicates per key.
func stream(n, dupe int, seed uint64) tuple.Relation {
	rng := rand.New(rand.NewPCG(seed, seed^11))
	out := make(tuple.Relation, n)
	for i := range out {
		out[i] = tuple.Tuple{TS: int64(i / 64), Key: int32(rng.IntN(n/dupe + 1)), Payload: int32(i)}
	}
	return out
}

// allocatedBytes is the least number of bytes f allocates over a few
// calls: the least, because a collection cycle that starts mid-call may
// add its own small allocations to any one of them.
func allocatedBytes(f func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestPooledWindowAllocsDoNotScale runs whole windows — core.Run, two
// workers — of every algorithm shape on a warmed pool, at two window sizes
// eight times apart. A warmed window may allocate what its caller keeps
// and a few words of bookkeeping — under 8 KB, at either size: run copies,
// sort scratch, merge outputs, PMJ runs, hash tables, pair buffers, the
// JB router's status table and the run's metrics collector (33 KB for two
// workers) all come from the pool.
func TestPooledWindowAllocsDoNotScale(t *testing.T) {
	algs := []core.Algorithm{
		lazy.NPJ{}, lazy.PRJ{}, lazy.MWay{}, lazy.MPass{},
		eager.SHJ{JB: false}, eager.SHJ{JB: true}, eager.PMJ{JB: false}, eager.PMJ{JB: true},
	}
	const small, large = 4096, 8 * 4096
	const bound = 8 << 10
	for _, alg := range algs {
		for _, simd := range []bool{false, true} {
			for _, n := range []int{small, large} {
				r, s := stream(n, 4, 1), stream(n, 4, 2)
				p := pool.New()
				run := func() {
					cfg := core.RunConfig{Threads: 2, AtRest: true, Pool: p, Knobs: core.Knobs{SIMD: simd}}
					if _, err := core.Run(alg, r, s, 0, cfg); err != nil {
						t.Fatal(err)
					}
				}
				run() // sizes every buffer
				run() // settles the freelists
				if got := allocatedBytes(run); got >= bound {
					t.Errorf("%s simd=%v: a warmed pooled window of %d tuples a side allocates %d B, want under %d",
						alg.Name(), simd, n, got, bound)
				}
			}
		}
	}
}
