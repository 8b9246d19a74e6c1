package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/tuple"
)

// soloConsumer is a lock-free Emit target that notices company: a second
// goroutine entering emit while one is inside trips the in-flight flag
// (and, under -race, the unsynchronized counter).
type soloConsumer struct {
	inFlight atomic.Bool
	overlaps atomic.Int64
	seen     int64 // deliberately plain: Emit's contract is the only thing ordering its writers
}

func (c *soloConsumer) emit(tuple.JoinResult) {
	if !c.inFlight.CompareAndSwap(false, true) {
		c.overlaps.Add(1)
	}
	c.seen++
	c.inFlight.Store(false)
}

// fullBatch returns a result batch of n results taken from o.
func fullBatch(o *Outbox, n int) []tuple.JoinResult {
	b := o.batch()
	for i := 0; i < n; i++ {
		b = append(b, tuple.JoinResult{TS: int64(i)})
	}
	return b
}

// waitFor polls cond until it holds; the outbox has no event to wait on
// from outside, and a deadline turns a hang into a failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestOutboxParksWhileConsumerIsBusyAndHoldsItsBound stalls the consumer
// inside the first batch, lets a second worker flush until the backlog is
// full and checks that the flush beyond the bound waits, that nothing is
// delivered twice or lost once the consumer goes on, and that the counters
// tell the story.
func TestOutboxParksWhileConsumerIsBusyAndHoldsItsBound(t *testing.T) {
	var c soloConsumer
	stall, entered := make(chan struct{}), make(chan struct{})
	first := true
	o := NewOutbox(func(jr tuple.JoinResult) {
		if first {
			first = false
			close(entered)
			<-stall
		}
		c.emit(jr)
	}, nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the worker that takes the token and gets stuck in the consumer
		defer wg.Done()
		o.release(o.flush(fullBatch(o, 10)))
	}()
	<-entered

	// A second worker parks up to the bound without waiting for anybody.
	for i := 0; i < maxParked; i++ {
		o.release(o.flush(fullBatch(o, 10)))
	}
	if st := o.stats(); st.Parked != maxParked || st.PeakBacklog != maxParked || st.Waits != 0 || st.Delivered != 0 {
		t.Fatalf("after %d parked flushes: %+v", maxParked, st)
	}

	// One more has to wait for room.
	wg.Add(1)
	beyond := make(chan struct{})
	go func() {
		defer wg.Done()
		o.release(o.flush(fullBatch(o, 10)))
		close(beyond)
	}()
	waitFor(t, "the flush beyond the bound is counted as waiting", func() bool { return o.stats().Waits == 1 })
	select {
	case <-beyond:
		t.Fatal("a flush beyond the backlog bound returned while the consumer was stalled")
	default:
	}
	if n := o.nParked.Load(); n != maxParked {
		t.Fatalf("backlog is %d batches, bound is %d", n, maxParked)
	}

	close(stall)
	wg.Wait()
	o.Close()
	st := o.stats()
	if want := int64(maxParked + 2); st.Delivered != want || c.seen != 10*want {
		t.Fatalf("delivered %d batches and %d results, want %d and %d", st.Delivered, c.seen, want, 10*want)
	}
	if st.PeakBacklog != maxParked || st.Waits != 1 || o.nParked.Load() != 0 {
		t.Fatalf("after the drain: %+v, %d still parked", st, o.nParked.Load())
	}
	if n := c.overlaps.Load(); n != 0 {
		t.Fatalf("the consumer was entered concurrently %d times", n)
	}
}

// TestRefreshDeliversWhatOthersParked: a batch left in the backlog — as a
// worker leaves it whose flush found the token taken — is delivered by the
// next Refresh of any worker's sink, results or no results of its own.
func TestRefreshDeliversWhatOthersParked(t *testing.T) {
	var c soloConsumer
	ctx := &ExecContext{Threads: 2, Clock: fakeClock{now: 5}, M: metrics.NewCollector(2)}
	ctx.Out = NewOutbox(c.emit, nil)
	if !ctx.Out.park(fullBatch(ctx.Out, 7), false) {
		t.Fatal("an empty backlog refused a batch")
	}
	idle := NewSink(ctx, 1) // a stalled eager worker: it finds no input, so no matches
	idle.Refresh()
	if c.seen != 7 || ctx.Out.nParked.Load() != 0 {
		t.Fatalf("after an idle worker's Refresh: %d of 7 results delivered, %d batches parked", c.seen, ctx.Out.nParked.Load())
	}
	idle.Close()
	ctx.Out.Close()
}

// emitRun is one emit-mode run of workers sinks, each booking and emitting
// perWorker matches, on a fresh outbox over p; it returns the pool traffic.
func emitRun(t *testing.T, p *pool.Pool, c *soloConsumer, workers, perWorker int) metrics.PoolStats {
	t.Helper()
	before := p.Stats()
	ctx := &ExecContext{Threads: workers, Clock: fakeClock{now: 5}, M: metrics.NewCollector(workers), Pool: p}
	ctx.Out = NewOutbox(c.emit, p)
	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			k := NewSink(ctx, tid)
			for i := 0; i < perWorker; i++ {
				k.Match(tuple.Tuple{TS: 1, Key: 1}, tuple.Tuple{TS: 2, Key: 1})
			}
			k.Close()
		}(tid)
	}
	wg.Wait()
	ctx.Out.Close()
	if n, want := ctx.M.Snapshot("x", 0, 1).Matches, int64(workers*perWorker); n != want {
		t.Fatalf("%d matches booked, want %d", n, want)
	}
	if n := ctx.Out.nParked.Load(); n != 0 {
		t.Fatalf("%d batches parked after Close", n)
	}
	return p.Stats().Since(before)
}

// TestOutboxDeliversExactlyOnceAndNeverConcurrently: four workers flushing
// into one outbox as fast as they can.
func TestOutboxDeliversExactlyOnceAndNeverConcurrently(t *testing.T) {
	var c soloConsumer
	const workers, perWorker = 4, 20*MatchBatch + 17
	emitRun(t, pool.New(), &c, workers, perWorker)
	if c.seen != workers*perWorker || c.overlaps.Load() != 0 {
		t.Fatalf("%d results delivered (want %d), %d concurrent entries", c.seen, workers*perWorker, c.overlaps.Load())
	}
}

// TestOutboxBatchesComeFromThePoolAndGoBack: the first run on a pool
// allocates its result batch, Close hands it back, and the second run
// misses none. One worker, so that the demand is the same both times: how
// many batches several workers have in flight at once is the scheduler's.
func TestOutboxBatchesComeFromThePoolAndGoBack(t *testing.T) {
	p := pool.New()
	var c soloConsumer
	cold := emitRun(t, p, &c, 1, 5*MatchBatch)
	if cold.Misses[metrics.PoolResults] == 0 {
		t.Fatal("the first run on an empty pool must allocate its result batch")
	}
	warm := emitRun(t, p, &c, 1, 5*MatchBatch)
	if warm.Misses[metrics.PoolResults] != 0 || warm.Hits[metrics.PoolResults] == 0 {
		t.Fatalf("second run on the warm pool: %d result-batch misses, %d hits", warm.Misses[metrics.PoolResults], warm.Hits[metrics.PoolResults])
	}
}
