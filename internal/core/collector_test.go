package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/tuple"
)

// scriptAlg books a fixed script into every worker's metrics — phase time,
// matches at several latencies and emission times, memory samples — scaled
// by k so that two scripts leave different marks everywhere, and reads no
// clock: two runs of one script differ only in the wall time core.Run
// measures around them.
type scriptAlg struct {
	k    int64
	fail bool
}

func (scriptAlg) Name() string { return "SCRIPT" }
func (a scriptAlg) Run(ctx *ExecContext) error {
	for tid := 0; tid < ctx.Threads; tid++ {
		tm := ctx.M.T(tid)
		for p := range metrics.Phases() {
			tm.AddPhaseNs(metrics.Phase(p), a.k*int64(100*(tid+1)+p))
		}
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
// traffic, which says whether the collector was a hit.
func stable(res metrics.Result) metrics.Result {
	res.WallNs, res.CPUUtil, res.Pool = 0, 0, metrics.PoolStats{}
	return res
}

var scriptInput = tuple.Relation{{TS: 0, Key: 1}, {TS: 1, Key: 2}}

// TestRecycledCollectorIsInvisible: a run on a collector that an earlier,
// different run dirtied and the pool recycled returns the Result a run on
// a fresh collector returns, field for field.
func TestRecycledCollectorIsInvisible(t *testing.T) {
	cfg := RunConfig{Threads: 3, AtRest: true}
	fresh, err := Run(scriptAlg{k: 2}, scriptInput, scriptInput, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Matches == 0 || len(fresh.Progress) < 2 || len(fresh.MemCurve) != 3 || fresh.MemPeakBytes == 0 {
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
	if recycled.Pool.Hits[metrics.PoolCollector] != 1 || recycled.Pool.Misses[metrics.PoolCollector] != 0 {
		t.Fatalf("second pooled run did not reuse the first's collector: %+v", recycled.Pool)
	}
	if got, want := stable(recycled), stable(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("run on a recycled collector:\n%+v\nrun on a fresh one:\n%+v", got, want)
	}

	// A different worker count does not get the three-worker collector.
	cfg.Threads = 2
	two, err := Run(scriptAlg{k: 2}, scriptInput, scriptInput, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if two.Threads != 2 || two.Pool.Misses[metrics.PoolCollector] != 1 {
		t.Errorf("a two-worker run after three-worker ones: threads %d, pool %+v", two.Threads, two.Pool)
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
	progress, curve := slices.Clone(first.Progress), slices.Clone(first.MemCurve)
	second, err := Run(scriptAlg{k: 9}, scriptInput, scriptInput, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Pool.Hits[metrics.PoolCollector] != 1 {
		t.Fatalf("second run did not reuse the collector: %+v", second.Pool)
	}
	if slices.Equal(second.Progress, progress) || slices.Equal(second.MemCurve, curve) {
		t.Fatal("the two scripts must leave different curves for this test to mean anything")
	}
	if !slices.Equal(first.Progress, progress) || !slices.Equal(first.MemCurve, curve) {
		t.Errorf("the next run rewrote an earlier Result:\nProgress %v, was %v\nMemCurve %v, was %v",
			first.Progress, progress, first.MemCurve, curve)
	}
}

// TestFailedRunReturnsItsCollector: the pool retains as much after a run
// whose algorithm failed as after a clean one, and the run after the
// failure finds the collector.
func TestFailedRunReturnsItsCollector(t *testing.T) {
	cfg := RunConfig{Threads: 2, AtRest: true, Pool: pool.New()}
	if _, err := Run(scriptAlg{k: 2}, scriptInput, scriptInput, 10, cfg); err != nil {
		t.Fatal(err)
	}
	afterClean := cfg.Pool.Stats()
	if afterClean.RetainedBytes == 0 {
		t.Fatal("a clean run left nothing in the pool")
	}
	if _, err := Run(scriptAlg{k: 3, fail: true}, scriptInput, scriptInput, 10, cfg); err == nil {
		t.Fatal("scripted failure did not surface")
	}
	afterFailed := cfg.Pool.Stats()
	if afterFailed.RetainedBytes != afterClean.RetainedBytes {
		t.Errorf("pool retains %d B after a failed run, %d B after a clean one", afterFailed.RetainedBytes, afterClean.RetainedBytes)
	}
	res, err := Run(scriptAlg{k: 2}, scriptInput, scriptInput, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pool.Hits[metrics.PoolCollector] != 1 {
		t.Errorf("the run after a failed one allocated a collector: %+v", res.Pool)
	}
	if fresh, _ := Run(scriptAlg{k: 2}, scriptInput, scriptInput, 10, RunConfig{Threads: 2, AtRest: true}); !reflect.DeepEqual(stable(res), stable(fresh)) {
		t.Errorf("run on the failed run's collector:\n%+v\nrun on a fresh one:\n%+v", stable(res), stable(fresh))
	}
}
