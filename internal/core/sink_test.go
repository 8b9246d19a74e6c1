package core

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/hashtable"
	"repro/internal/metrics"
	"repro/internal/tuple"
)

// refSink is the per-match form the run-form Sink replaced, kept as the
// reference: two histogram updates and one consumer call per match, the
// clock sampled after every MatchBatch-th match and on refresh. It books
// what ThreadMetrics.Matches books, except that the caller says which
// matches start a run.
type refSink struct {
	ctx     *ExecContext
	tm      *metrics.ThreadMetrics
	emit    func(tuple.JoinResult)
	nowMs   int64
	pending int
}

func newRefSink(ctx *ExecContext, emit func(tuple.JoinResult)) *refSink {
	return &refSink{ctx: ctx, tm: ctx.M.T(0), emit: emit, nowMs: ctx.Clock.NowMs()}
}

func (k *refSink) match(r, s tuple.Tuple, startsRun bool) {
	last := max(r.TS, s.TS) - k.ctx.BaseTS
	idx, _, _ := metrics.Bucket(k.nowMs - last)
	k.tm.Latencies(idx, 1, k.nowMs-last)
	runs := int64(0)
	if startsRun {
		runs = 1
	}
	k.tm.Emitted(1, runs, k.nowMs)
	jr := tuple.ResultOf(r, s)
	jr.TS = last
	k.emit(jr)
	k.pending++
	if k.pending >= MatchBatch {
		k.pending = 0
		k.nowMs = k.ctx.Clock.NowMs()
	}
}

func (k *refSink) refresh() { k.nowMs = k.ctx.Clock.NowMs() }

// stepClock is a deterministic clock: every reading moves it on by a
// seeded step, so two clocks of one seed read alike exactly when they are
// read equally often — which holds the run form to the reference's clock
// samples, not just to its totals.
type stepClock struct {
	rng *rand.Rand
	now int64
}

func newStepClock(seed uint64) *stepClock {
	return &stepClock{rng: rand.New(rand.NewPCG(seed, 1)), now: 40}
}

func (c *stepClock) NowMs() int64 {
	// Mostly small steps and now and then a leap, so that consecutive
	// samples land in the same, the next and a far latency bucket.
	if step := c.rng.IntN(8); step == 7 {
		c.now += int64(c.rng.IntN(400))
	} else {
		c.now += int64(step / 3)
	}
	return c.now
}
func (c *stepClock) Avail(ts int64) bool { return ts <= c.now }
func (c *stepClock) AtRest() bool        { return false }

// TestRunFormEqualsPerMatchForm drives the sink and the reference with the
// same seeded stream of probe batches (both orientations; unique keys,
// short runs and runs longer than a clock sample), merge-join rectangles
// (one match, one column, many rows), single matches and refreshes —
// timestamps before, at and after the clock, counted from a non-zero base
// — and requires the same Result and the same results in the same order.
func TestRunFormEqualsPerMatchForm(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		const base = 1000
		rng := rand.New(rand.NewPCG(seed, 7))
		tup := func() tuple.Tuple {
			ts := int64(rng.IntN(120))
			if rng.IntN(4) == 0 {
				ts = int64(rng.IntN(3000)) // far from the clock either way
			}
			return tuple.Tuple{TS: base + ts, Key: int32(rng.IntN(50)), Payload: rng.Int32()}
		}
		run := func(n int) []tuple.Tuple {
			out := make([]tuple.Tuple, n)
			for i := range out {
				out[i] = tup()
			}
			if rng.IntN(3) == 0 { // one arrival time: the longest latency runs
				for i := range out {
					out[i].TS = out[0].TS
				}
			}
			return out
		}

		newCtx := func() *ExecContext {
			return &ExecContext{BaseTS: base, Threads: 1, Clock: newStepClock(seed), M: metrics.NewCollector(1)}
		}
		var got, want []tuple.JoinResult
		ctx := newCtx()
		ctx.Out = NewOutbox(func(jr tuple.JoinResult) { got = append(got, jr) }, nil)
		k := NewSink(ctx, 0)
		refCtx := newCtx()
		ref := newRefSink(refCtx, func(jr tuple.JoinResult) { want = append(want, jr) })

		for ev := 0; ev < 300; ev++ {
			switch rng.IntN(5) {
			case 0:
				r, s := tup(), tup()
				k.Match(r, s)
				ref.match(r, s, true)
			case 1, 2:
				// Up to a few clock samples' worth of matches in one batch.
				hits, storedR := make([]hashtable.Hit, rng.IntN(40)), rng.IntN(2) == 0
				longest := []int{1, 5, 90, 2500}[rng.IntN(4)]
				for i := range hits {
					hits[i] = hashtable.Hit{Probe: tup(), Stored: run(1 + rng.IntN(longest))}
				}
				k.Hits(hits, storedR)
				for _, h := range hits {
					for i, stored := range h.Stored {
						if storedR {
							ref.match(stored, h.Probe, i == 0)
						} else {
							ref.match(h.Probe, stored, i == 0)
						}
					}
				}
			case 3:
				rRun, sRun := run(rng.IntN(40)), run(rng.IntN(90))
				switch rng.IntN(4) {
				case 0: // unique keys: Rect's one-match entry
					rRun, sRun = run(1), run(1)
				case 1: // one S tuple: the column is the run
					sRun = run(1)
				}
				k.Rect(rRun, sRun)
				for i, r := range rRun {
					for j, s := range sRun {
						ref.match(r, s, j == 0 && (i == 0 || len(sRun) > 1))
					}
				}
			case 4:
				k.Refresh()
				ref.refresh()
			}
		}
		k.Close()
		ctx.Out.Close()

		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: run form emitted %d results, per-match form %d, or they differ", seed, len(got), len(want))
		}
		// Every bucket of both histograms, not just the quantiles a Result
		// reports: a match filed one bucket off moves no quantile.
		if !reflect.DeepEqual(ctx.M.T(0), refCtx.M.T(0)) {
			t.Fatalf("seed %d: run form booked\n%+v\nper-match form\n%+v", seed, ctx.M.Snapshot("x", 0, 1), refCtx.M.Snapshot("x", 0, 1))
		}
		if res := ctx.M.Snapshot("x", 0, 1); res.Matches != int64(len(want)) || res.Matches == 0 {
			t.Fatalf("seed %d: %d matches booked, %d emitted", seed, res.Matches, len(want))
		}
	}
}

// TestCountOnlySinkAllocatesNothingPerRun: with no outbox the run forms and
// refreshes touch only the sink and the collector.
func TestCountOnlySinkAllocatesNothingPerRun(t *testing.T) {
	ctx := &ExecContext{Threads: 1, Clock: newStepClock(3), M: metrics.NewCollector(1)}
	k := NewSink(ctx, 0)
	pairs := make([]tuple.Tuple, 4096)
	for i := range pairs {
		pairs[i] = tuple.Tuple{TS: int64(i % 97), Key: 1}
	}
	hits := make([]hashtable.Hit, 64)
	for i := range hits {
		hits[i] = hashtable.Hit{Probe: pairs[i], Stored: pairs[i : i+1+37*(i%3)]}
	}
	if n := testing.AllocsPerRun(20, func() {
		k.Hits(hits, true)
		k.Hits([]hashtable.Hit{{Probe: pairs[0], Stored: pairs}}, false)
		k.Rect(pairs[:60], pairs[60:200])
		k.Rect(pairs[:60], pairs[60:61])
		k.Match(pairs[0], pairs[1])
		k.Refresh()
	}); n != 0 {
		t.Fatalf("count-only sink allocates %.0f times per round", n)
	}
}
