package iawj

import (
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// stillClock reads the same time forever; with rest set it is a clock for
// data at rest. Under it a match's metrics depend on its inputs alone, so
// the run-form sink can be held to the per-match definition through the
// whole of an algorithm, whatever its threads do.
type stillClock struct {
	now  int64
	rest bool
}

func (c stillClock) NowMs() int64        { return c.now }
func (c stillClock) Avail(ts int64) bool { return c.rest || ts <= c.now }
func (c stillClock) AtRest() bool        { return c.rest }

// TestRunFormBooksWhatPerMatchBookingWould runs all eight algorithms at
// rest and paced on seeded inputs under a clock that stands still, books
// every emitted result the per-match way — one ThreadMetrics.Matches call
// per result, as the sink did before it took runs — and requires the same
// match count, latency quantiles, progress curve and last-match time.
// (internal/core's TestRunFormEqualsPerMatchForm holds the sink alone to
// the reference under a moving clock.)
func TestRunFormBooksWhatPerMatchBookingWould(t *testing.T) {
	w := Micro(MicroConfig{RateR: 24, RateS: 24, WindowMs: 120, Dupe: 6, Seed: 11})
	for _, rest := range []bool{true, false} {
		// At rest the clock stands inside the window — matches before and
		// after their inputs were due; paced it stands past its end, where
		// everything has arrived and latencies spread over the window.
		still := stillClock{now: w.WindowMs / 2, rest: rest}
		if !rest {
			still.now = w.WindowMs + 7
		}
		for _, alg := range Algorithms() {
			var emitted []JoinResult
			res, err := Join(w.R, w.S, Config{
				Algorithm: alg, Threads: 3, WindowMs: w.WindowMs, AtRest: rest,
				WrapClock: func(clock.Source) clock.Source { return still },
				Emit:      func(jr JoinResult) { emitted = append(emitted, jr) },
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := metrics.NewCollector(1)
			for _, jr := range emitted {
				ref.T(0).Matches(1, still.now, jr.TS)
			}
			want := ref.Snapshot(alg, res.Inputs, res.WallNs)
			if res.Matches != ExpectedMatches(w.R, w.S) || res.Matches != want.Matches {
				t.Fatalf("%s rest=%v: %d matches booked, %d emitted, %d expected", alg, rest, res.Matches, want.Matches, ExpectedMatches(w.R, w.S))
			}
			got := [...]int64{res.LatencyP50Ms, res.LatencyP95Ms, res.LatencyP99Ms, res.LatencyMaxMs, res.LastMatchMs}
			if ref := [...]int64{want.LatencyP50Ms, want.LatencyP95Ms, want.LatencyP99Ms, want.LatencyMaxMs, want.LastMatchMs}; got != ref {
				t.Fatalf("%s rest=%v: latency p50/p95/p99/max and last match %v, per-match booking gives %v", alg, rest, got, ref)
			}
			if !reflect.DeepEqual(res.Progress, want.Progress) {
				t.Fatalf("%s rest=%v: progress %v, per-match booking gives %v", alg, rest, res.Progress, want.Progress)
			}
			if !rest && res.LatencyMaxMs == res.LatencyP50Ms {
				t.Fatalf("%s: paced latencies do not spread (%d ms throughout): the check is vacuous", alg, res.LatencyMaxMs)
			}
		}
	}
}

// TestEmitWindowsAfterTheFirstMissNoResultBatch: the output path's batches
// come from the window pool and go back to it, so on a warm pool an
// emit-mode join — a second Join on the pool, or any window after the
// first of a windowed call — allocates none. One worker per join: how many
// batches several workers have in flight at once is the scheduler's.
func TestEmitWindowsAfterTheFirstMissNoResultBatch(t *testing.T) {
	w := Micro(MicroConfig{RateR: 30, RateS: 30, WindowMs: 200, Dupe: 8, Seed: 5})
	var n int64
	cfg := Config{Algorithm: "SHJ_JM", Threads: 1, AtRest: true, Pool: NewStatePool(),
		Emit: func(JoinResult) { n++ }}
	cold, err := Join(w.R, w.S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Pool.Misses[metrics.PoolResults] == 0 || cold.Output.Delivered == 0 {
		t.Fatalf("the first emit-mode join on an empty pool must allocate a result batch and deliver it: %+v %+v", cold.Pool, cold.Output)
	}
	warm, err := Join(w.R, w.S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Pool.Misses[metrics.PoolResults] != 0 || warm.Pool.Hits[metrics.PoolResults] == 0 {
		t.Fatalf("second join on the warm pool: result batches %d missed, %d hit", warm.Pool.Misses[metrics.PoolResults], warm.Pool.Hits[metrics.PoolResults])
	}
	results, err := JoinWindowed(w.R, w.S, WindowSpec{Kind: Tumbling, LengthMs: 50}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, wr := range results {
		if wr.Result.Pool.Misses[metrics.PoolResults] != 0 {
			t.Fatalf("window %d of a windowed call on the warm pool missed %d result batches", i, wr.Result.Pool.Misses[metrics.PoolResults])
		}
	}
	if want := 2*cold.Matches + TotalMatches(results); n != want {
		t.Fatalf("%d results delivered, %d matches booked", n, want)
	}
}

// TestSinkRunsSayWhichPathMatchesTook: Result.SinkRuns counts the runs the
// matches reached the sink in. Over duplicate keys every algorithm hands
// its sink runs — a probe tuple with the stored run of its key, a
// merge-join row — so runs are several times fewer than matches (by the
// duplication where the whole window is joined at once, by less where PMJ
// joins it a sorted run at a time); over unique keys every match is its
// own run.
func TestSinkRunsSayWhichPathMatchesTook(t *testing.T) {
	for _, dupe := range []int{1, 12} {
		w := Micro(MicroConfig{RateR: 40, RateS: 40, WindowMs: 100, Dupe: dupe, Seed: 3})
		for _, alg := range Algorithms() {
			res, err := Join(w.R, w.S, Config{Algorithm: alg, Threads: 2, WindowMs: w.WindowMs, AtRest: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches == 0 || res.Matches != ExpectedMatches(w.R, w.S) {
				t.Fatalf("%s dupe %d: %d matches, want %d", alg, dupe, res.Matches, ExpectedMatches(w.R, w.S))
			}
			perRun := float64(res.Matches) / float64(res.SinkRuns)
			if dupe == 1 && res.SinkRuns != res.Matches {
				t.Errorf("%s over unique keys: %d matches in %d runs", alg, res.Matches, res.SinkRuns)
			}
			if dupe > 1 && perRun < 2 {
				t.Errorf("%s at dupe %d: %d matches in %d runs, %.1f a run", alg, dupe, res.Matches, res.SinkRuns, perRun)
			}
		}
	}
}
