package oracle

import (
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	iawj "repro"
	"repro/internal/gen"
	"repro/internal/tuple"
	"repro/internal/window"
)

// soloSink digests what it is handed without a lock, like Sink, and also
// notices a second goroutine entering Emit while one is inside — with an
// in-flight flag that works without the race detector and a plain digest
// that trips it.
type soloSink struct {
	Sink
	inFlight atomic.Bool
	overlaps atomic.Int64
	each     func() // runs inside every Emit; nil for none
}

func (s *soloSink) Emit(jr tuple.JoinResult) {
	if !s.inFlight.CompareAndSwap(false, true) {
		s.overlaps.Add(1)
	}
	s.Sink.Emit(jr)
	if s.each != nil {
		s.each()
	}
	s.inFlight.Store(false)
}

func (s *soloSink) check(t *testing.T, what string, want Digest) {
	t.Helper()
	if n := s.overlaps.Load(); n != 0 {
		t.Fatalf("%s: Emit was entered concurrently %d times", what, n)
	}
	if got := s.Digest(); got != want {
		t.Fatalf("%s: delivered %s, reference %s: results were lost or delivered twice", what, got.Full, want.Full)
	}
}

// TestEmitDeliversExactlyOnceAndNeverConcurrently joins a paced high-
// duplication stream with every algorithm on three workers, and its
// windows with three joins in flight over one consumer.
func TestEmitDeliversExactlyOnceAndNeverConcurrently(t *testing.T) {
	w := gen.Micro(gen.MicroConfig{RateR: 40, RateS: 40, WindowMs: 100, Dupe: 20, Seed: 17})
	want := Reference(w.R, w.S)
	spec := window.Spec{Kind: window.Sliding, LengthMs: 40, SlideMs: 20}
	pairs, err := window.AssignPair(w.R, w.S, spec)
	if err != nil {
		t.Fatal(err)
	}
	var wantWindows Digest
	for _, p := range pairs {
		wantWindows.Merge(Reference(rebase(p.R, p.Window.Start), rebase(p.S, p.Window.Start)))
	}
	if want.Full.Count < 50_000 || len(pairs) < 4 {
		t.Fatalf("workload too small to contend: %d results, %d windows", want.Full.Count, len(pairs))
	}

	for _, alg := range iawj.Algorithms() {
		cfg := iawj.Config{Algorithm: alg, Threads: 3, WindowMs: w.WindowMs, Pool: iawj.NewStatePool()}
		var one soloSink
		cfg.Emit = one.Emit
		res, err := iawj.Join(w.R, w.S, cfg)
		if err != nil {
			t.Fatal(err)
		}
		one.check(t, alg, want)
		if out := res.Output; out.Delivered*1024 < want.Full.Count || out.Parked > out.Delivered {
			t.Fatalf("%s: %d results in %+v", alg, want.Full.Count, out)
		}

		var many soloSink
		cfg.Emit, cfg.AtRest = many.Emit, true
		results, err := iawj.JoinWindowedParallel(w.R, w.S, spec, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		many.check(t, alg+" windowed, 3 in flight", wantWindows)
		if got := iawj.TotalMatches(results); got != wantWindows.Full.Count {
			t.Fatalf("%s windowed: %d matches booked, %d delivered", alg, got, wantWindows.Full.Count)
		}
	}
}

// rebase returns rel with timestamps counted from start, as a window's
// results count them.
func rebase(rel tuple.Relation, start int64) tuple.Relation {
	out := rel.Clone()
	for i := range out {
		out[i].TS -= start
	}
	return out
}

// TestSlowConsumerShowsInOutputCounters: a consumer that cannot keep up
// fills the backlog to its bound and no further, holds the workers back,
// and still receives everything exactly once before Join returns.
func TestSlowConsumerShowsInOutputCounters(t *testing.T) {
	w := gen.MicroStatic(3000, 3000, 30, 0, 5)
	want := Reference(w.R, w.S)
	var slow soloSink
	n := 0
	slow.each = func() {
		if n++; n%1024 == 0 {
			time.Sleep(200 * time.Microsecond) // a batch takes the consumer far longer than a worker
		}
	}
	res, err := iawj.Join(w.R, w.S, iawj.Config{Algorithm: "MWAY", Threads: 4, AtRest: true, Emit: slow.Emit})
	if err != nil {
		t.Fatal(err)
	}
	slow.check(t, "slow consumer", want)
	out := res.Output
	const bound = 16 // core's maxParked
	if out.PeakBacklog != bound || out.Waits == 0 || out.Parked == 0 {
		t.Fatalf("a consumer ~100x slower than the join must fill the backlog to its bound of %d and make flushes wait: %+v", bound, out)
	}
	if out.Delivered < want.Full.Count/1024 {
		t.Fatalf("%d results cannot have been delivered in %d batches", want.Full.Count, out.Delivered)
	}
}

// TestFailedJoinStillDeliversWhatItProduced: PMJ that cannot spill keeps
// its runs in memory, finishes the join and reports the error — and what
// its workers parked on the way is delivered before Join returns, like
// everything else.
func TestFailedJoinStillDeliversWhatItProduced(t *testing.T) {
	w := gen.MicroStatic(2000, 2000, 16, 0, 9)
	var sink soloSink
	_, err := iawj.Join(w.R, w.S, iawj.Config{
		Algorithm: "PMJ_JM", Threads: 3, AtRest: true, Emit: sink.Emit,
		SpillDir: filepath.Join(t.TempDir(), "missing"),
	})
	if err == nil {
		t.Fatal("PMJ with an unusable spill directory must fail")
	}
	sink.check(t, "failed PMJ", Reference(w.R, w.S))
}
