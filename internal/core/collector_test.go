package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/tuple"
)

// scriptAlg books a fixed script into every worker's metrics — matches at
// several latencies and emission times, memory samples — scaled by k so
// that two scripts leave different marks everywhere, and reads no clock:
// two runs of one script differ only in the wall time core.Run measures
// around them. It books no phase time, which only a clock read can;
// metrics.TestCollectorResetEqualsNew covers a reset worker's phases.
// With take it first takes a buffer, a table and a partitioner through
// the context, and gives none of them back itself.
type scriptAlg struct {
	k    int64
	fail bool
	take bool
}

func (scriptAlg) Name() string { return "SCRIPT" }
func (a scriptAlg) Run(ctx *ExecContext) error {
	if a.take {
		ctx.Tuples(0, 100)
		ctx.Table(ctx.Threads-1, 100)
		ctx.Partitioner(ctx.Threads - 1)
	}
	for tid := 0; tid < ctx.Threads; tid++ {
		tm := ctx.M.T(tid)
		for i := int64(1); i <= 40; i++ {
			tm.Matches(a.k+i, a.k*i*3, a.k*i)
		}
		ctx.M.MemAdd(a.k * 1000)
		ctx.M.MemSampleNow(a.k * int64(tid+1))
	}
	ctx.M.MemAdd(-a.k * 500)
	if a.fail {
		return errors.New("scripted failure")
	}
	return nil
}

// stable strips what differs between any two runs of one script: the
// measured wall time (and the utilization derived from it) and the pool
// traffic, which says whether the frame, and with it the collector, was a
// hit.
func stable(res metrics.Result) metrics.Result {
	res.WallNs, res.CPUUtil, res.Pool = 0, 0, metrics.PoolStats{}
	return res
}

var scriptInput = tuple.Relation{{TS: 0, Key: 1}, {TS: 1, Key: 2}}

// TestRecycledCollectorIsInvisible: a run on a collector that an earlier,
// different run dirtied and its frame kept returns the Result a run on a
// fresh collector returns, field for field — also when the collector last
// served more workers than the run has.
func TestRecycledCollectorIsInvisible(t *testing.T) {
	cfg := RunConfig{Threads: 3, AtRest: true}
	fresh, err := Run(scriptAlg{k: 2}, scriptInput, scriptInput, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Matches == 0 || fresh.Progress[len(fresh.Progress)-1].Frac != 1 || fresh.MemPoints != 3 || fresh.MemPeakBytes == 0 {
		t.Fatalf("the script leaves too little to compare: %+v", fresh)
	}

	cfg.Pool = pool.New()
	if _, err := Run(scriptAlg{k: 7}, scriptInput, scriptInput, 10, cfg); err != nil {
		t.Fatal(err)
	}
	recycled, err := Run(scriptAlg{k: 2}, scriptInput, scriptInput, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if recycled.Pool.Hits[metrics.PoolFrame] != 1 || recycled.Pool.Misses[metrics.PoolFrame] != 0 {
		t.Fatalf("second pooled run did not reuse the first's frame: %+v", recycled.Pool)
	}
	if got, want := stable(recycled), stable(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("run on a recycled collector:\n%+v\nrun on a fresh one:\n%+v", got, want)
	}

	// A two-worker run on the frame whose collector last served three
	// workers returns what a two-worker run on a fresh one returns.
	freshTwo, err := Run(scriptAlg{k: 2}, scriptInput, scriptInput, 10, RunConfig{Threads: 2, AtRest: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Threads = 2
	two, err := Run(scriptAlg{k: 2}, scriptInput, scriptInput, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if two.Threads != 2 || two.Pool.Hits[metrics.PoolFrame] != 1 {
		t.Fatalf("a two-worker run after three-worker ones: threads %d, pool %+v", two.Threads, two.Pool)
	}
	if got, want := stable(two), stable(freshTwo); !reflect.DeepEqual(got, want) {
		t.Errorf("two-worker run on a three-worker collector:\n%+v\non a fresh one:\n%+v", got, want)
	}
}

// TestRunRecordCountsItsFrame: a run's Result.Pool counts the frame the
// run took — a miss on a fresh pool, a hit on every later call — as
// Pool.Stats does.
func TestRunRecordCountsItsFrame(t *testing.T) {
	cfg := RunConfig{Threads: 2, AtRest: true, Pool: pool.New()}
	for call, want := range []struct{ hits, misses int64 }{{0, 1}, {1, 0}, {1, 0}} {
		res, err := Run(scriptAlg{k: 2}, scriptInput, scriptInput, 10, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Pool; got.Hits[metrics.PoolFrame] != want.hits || got.Misses[metrics.PoolFrame] != want.misses {
			t.Errorf("call %d: Result.Pool counts %d frame hits, %d misses; want %d, %d",
				call, got.Hits[metrics.PoolFrame], got.Misses[metrics.PoolFrame], want.hits, want.misses)
		}
	}
	if st := cfg.Pool.Stats(); st.Hits[metrics.PoolFrame] != 2 || st.Misses[metrics.PoolFrame] != 1 {
		t.Errorf("Pool.Stats counts %d frame hits, %d misses; want 2, 1", st.Hits[metrics.PoolFrame], st.Misses[metrics.PoolFrame])
	}
}

// TestResultOutlivesItsCollector: the Progress and MemCurve of a Result
// are copies — the next run on the same collector changes neither.
func TestResultOutlivesItsCollector(t *testing.T) {
	cfg := RunConfig{Threads: 2, AtRest: true, Pool: pool.New()}
	first, err := Run(scriptAlg{k: 2}, scriptInput, scriptInput, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	progress, curve := first.Progress, first.MemCurve
	second, err := Run(scriptAlg{k: 9}, scriptInput, scriptInput, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Pool.Hits[metrics.PoolFrame] != 1 {
		t.Fatalf("second run did not reuse the frame's collector: %+v", second.Pool)
	}
	if second.Progress == progress || second.MemCurve == curve {
		t.Fatal("the two scripts must leave different curves for this test to mean anything")
	}
	if first.Progress != progress || first.MemCurve != curve {
		t.Errorf("the next run rewrote an earlier Result:\nProgress %v, was %v\nMemCurve %v, was %v",
			first.Progress, progress, first.MemCurve, curve)
	}
}

// TestFailedRunReturnsItsCollector: the pool retains as much after a run
// whose algorithm failed as after a clean one — the frame with its
// collector, and what the algorithm took through the context — and the
// run after the failure finds the frame.
func TestFailedRunReturnsItsCollector(t *testing.T) {
	for _, take := range []bool{false, true} {
		cfg := RunConfig{Threads: 2, AtRest: true, Pool: pool.New()}
		if _, err := Run(scriptAlg{k: 2, take: take}, scriptInput, scriptInput, 10, cfg); err != nil {
			t.Fatal(err)
		}
		afterClean := cfg.Pool.Stats()
		if afterClean.RetainedBytes == 0 {
			t.Fatal("a clean run left nothing in the pool")
		}
		if _, err := Run(scriptAlg{k: 3, fail: true, take: take}, scriptInput, scriptInput, 10, cfg); err == nil {
			t.Fatal("scripted failure did not surface")
		}
		afterFailed := cfg.Pool.Stats()
		if afterFailed.RetainedBytes != afterClean.RetainedBytes {
			t.Errorf("take %v: pool retains %d B after a failed run, %d B after a clean one", take, afterFailed.RetainedBytes, afterClean.RetainedBytes)
		}
		if take {
			for _, k := range []metrics.PoolKind{metrics.PoolTuples, metrics.PoolTable, metrics.PoolPartitioner} {
				if d := afterFailed.Since(afterClean); d.Hits[k] != 1 || d.Misses[k] != 0 {
					t.Errorf("the failed run took %s %d times from the pool and allocated %d; want the clean run's one back", k, d.Hits[k], d.Misses[k])
				}
			}
		}
		res, err := Run(scriptAlg{k: 2, take: take}, scriptInput, scriptInput, 10, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pool.Hits[metrics.PoolFrame] != 1 {
			t.Errorf("the run after a failed one allocated a frame: %+v", res.Pool)
		}
		if fresh, _ := Run(scriptAlg{k: 2, take: take}, scriptInput, scriptInput, 10, RunConfig{Threads: 2, AtRest: true}); !reflect.DeepEqual(stable(res), stable(fresh)) {
			t.Errorf("run on the failed run's collector:\n%+v\nrun on a fresh one:\n%+v", stable(res), stable(fresh))
		}
	}
}
