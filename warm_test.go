package iawj

import (
	"fmt"
	"runtime"
	"testing"
)

// warmCall is one measured call: the heap objects and bytes it allocated
// and whether the pool had to allocate for it.
type warmCall struct {
	objects, bytes uint64
	grew           bool
}

// measureWarm makes up calls of f over p at the process's GOMAXPROCS,
// where the workers overlap as they do in use and the pool meets their
// joint demand, then measures runs calls one by one at GOMAXPROCS 1, as
// testing.AllocsPerRun does, after one unmeasured call.
func measureWarm(p *StatePool, up, runs int, f func()) []warmCall {
	for range up {
		f()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	calls := make([]warmCall, runs)
	var before, after runtime.MemStats
	for i := range calls {
		misses := p.Stats().Misses
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		calls[i] = warmCall{objects: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc, grew: p.Stats().Misses != misses}
	}
	return calls
}

// TestWarmJoinAllocations is the one allocation gate of a warm join: over
// a pool that has run the same shape before, every column, untraced, at
// rest and paced, counting or materializing, allocates only the
// goroutines it starts — one closure per worker past the first and the
// algorithm's worker body — and, with Emit, the goroutine the algorithm
// runs on while the caller's goroutine delivers. The ExecContext, clock,
// sinks, timers, outbox, collector, Parallel's wait group and every
// algorithm's shared state come from the call's pooled run frame; the
// Result's progress and memory curves are fixed arrays.
//
// Bounds, per warm Join and per settled window of a JoinWindowedParallel
// sweep: at most Threads objects counting and Threads+2 materializing,
// and for a Join at most 64 B per object on average (a sweep window's
// bytes include the WindowResult the caller keeps). A sweep's own
// objects — its pairs, results, outbox and window workers — do not grow
// with its window count.
//
// The bounds are on the average warm call, as testing.AllocsPerRun reads
// them: a paced call now and then also pays the runtime for a timer-heap
// slot or a wait-queue entry. A call the pool had to allocate for is not
// warm: it met a demand the pool had not seen — one more PMJ seal under
// pacing, one more result batch parked behind a busy consumer, two
// workers wanting a table of one size class at once — and the pool keeps
// what it allocated. The pool's own miss counters mark such calls; at
// most a tenth of a shape's calls may be one. Nothing is measured twice.
func TestWarmJoinAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every column in eight modes")
	}
	if raceEnabled {
		t.Skip("the race detector allocates for the code it instruments")
	}
	join := Micro(MicroConfig{RateR: 20, RateS: 20, WindowMs: 100, Dupe: 4, Seed: 7})
	short := Micro(MicroConfig{RateR: 4, RateS: 4, WindowMs: 1100, Dupe: 4, Seed: 8})
	long := Micro(MicroConfig{RateR: 4, RateS: 4, WindowMs: 2100, Dupe: 4, Seed: 8})
	spec := WindowSpec{Kind: Sliding, LengthMs: 200, SlideMs: 100}
	for _, threads := range []int{2, 4} {
		for _, paced := range []bool{false, true} {
			for _, emit := range []bool{false, true} {
				objMax := uint64(threads)
				if emit {
					objMax += 2
				}
				for _, alg := range append(Algorithms(), AdaptiveName) {
					name := fmt.Sprintf("%s/threads=%d/paced=%v/emit=%v", alg, threads, paced, emit)
					cfg := Config{Algorithm: alg, Threads: threads, AtRest: !paced, NsPerSimMs: 2000, Pool: NewStatePool()}
					if emit {
						var sum int64
						cfg.Emit = func(jr JoinResult) { sum += jr.TS }
					}
					jcfg := cfg
					jcfg.WindowMs = join.WindowMs
					grew := 0
					var warm, objects, bytes uint64
					for _, c := range measureWarm(cfg.Pool, 10, 20, func() {
						if _, err := Join(join.R, join.S, jcfg); err != nil {
							t.Fatal(err)
						}
					}) {
						if c.grew {
							grew++
							continue
						}
						warm, objects, bytes = warm+1, objects+c.objects, bytes+c.bytes
					}
					if warm == 0 || objects/warm > objMax || bytes > 64*max(objects, warm) {
						t.Errorf("%s: %d warm Joins allocate %d objects, %d B; want at most %d objects a Join, 64 B each",
							name, warm, objects, bytes, objMax)
					}

					// The least objects of a sweep's warm calls.
					sweep := func(w Workload) (windows, least uint64) {
						least = ^uint64(0)
						for _, c := range measureWarm(cfg.Pool, 3, 5, func() {
							results, err := JoinWindowedParallel(w.R, w.S, spec, cfg, 2)
							if err != nil {
								t.Fatal(err)
							}
							windows = uint64(len(results))
						}) {
							if c.grew {
								grew++
								continue
							}
							if c.objects < least {
								least = c.objects
							}
						}
						return windows, least
					}
					nShort, aShort := sweep(short)
					nLong, aLong := sweep(long)
					if perWindow := float64(aLong-aShort) / float64(nLong-nShort); aLong < aShort || perWindow > float64(objMax) {
						t.Errorf("%s: a settled window allocates %.1f objects (%d windows %d, %d windows %d), want at most %d",
							name, perWindow, nShort, aShort, nLong, aLong, objMax)
					}
					const sweepMax = 16
					if own := int64(aLong) - int64(nLong*objMax); own > sweepMax {
						t.Errorf("%s: a sweep of %d windows allocates %d objects, %d beyond %d a window; want at most %d",
							name, nLong, aLong, own, objMax, sweepMax)
					}
					if calls := 20 + 2*5; grew > calls/10 {
						t.Errorf("%s: the pool grew in %d of %d warm calls, want at most %d", name, grew, calls, calls/10)
					}
				}
			}
		}
	}
}

// TestSecondPassAfterColdPass: nine columns over one pool, three passes
// at 2^17 keys a side. The first warm pass pays what the cold one left
// unsized — a buffer request slightly larger than every freed one of its
// class takes the whole class, so it is not paid again; a hash table
// whose store spilled folds it into one array at its next use — and the
// pass after it little: a table of SHJ_JM's may have gone to SHJ_JB, and
// PMJ_JB's two workers route different shares. Measured on 2 vCPUs: 76–79
// MB cold, 7.5–8.4 MB (≤ 0.11×) the first warm pass, 0–0.9 MB the next;
// before the round-up 75.7, 9.0 and 0.013 MB.
func TestSecondPassAfterColdPass(t *testing.T) {
	if testing.Short() {
		t.Skip("joins 2^17 tuples a side 27 times")
	}
	w := MicroStatic(1<<17, 1<<17, 1, 0, 42)
	p := NewStatePool()
	var mb [3]float64
	for pass := range mb {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, alg := range append(Algorithms(), AdaptiveName) {
			if _, err := Join(w.R, w.S, Config{Algorithm: alg, Threads: 2, AtRest: true, Pool: p}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		mb[pass] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
	if mb[1] > 0.15*mb[0] || mb[2] > 0.03*mb[0] {
		t.Errorf("passes allocate %.3f, %.3f, %.3f MB; want the second at most 0.15× the cold one and the third at most 0.03×", mb[0], mb[1], mb[2])
	}
}
