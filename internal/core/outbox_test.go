package core

import (
	"math/bits"
	"strings"
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

// serveWork serves o while work, the workers of one run, runs on a
// goroutine of its own, as Run serves its algorithm; it returns work's
// error.
func serveWork(o *Outbox, work func() error) error {
	done := make(chan error, 1)
	go func() { done <- work() }()
	return o.serve(done)
}

// serving makes the calling test the workers of one run on o: a goroutine
// serves o the way Run's caller does, and the returned function ends the
// run — the workers are done — and returns once the backlog is delivered.
func serving(o *Outbox) (done func()) {
	finish, served := make(chan struct{}), make(chan struct{})
	go func() {
		_ = serveWork(o, func() error { <-finish; return nil })
		close(served)
	}()
	return func() { close(finish); <-served }
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
	}, pool.New())
	done := serving(o)

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
	if n := len(o.parked); n != maxParked {
		t.Fatalf("backlog is %d batches, bound is %d", n, maxParked)
	}

	close(stall)
	wg.Wait()
	done()
	st := o.stats()
	if want := int64(maxParked + 2); st.Delivered != want || c.seen != 10*want {
		t.Fatalf("delivered %d batches and %d results, want %d and %d", st.Delivered, c.seen, want, 10*want)
	}
	if st.PeakBacklog != maxParked || st.Waits != 1 || len(o.parked) != 0 {
		t.Fatalf("after the drain: %+v, %d still parked", st, len(o.parked))
	}
	if n := c.overlaps.Load(); n != 0 {
		t.Fatalf("the consumer was entered concurrently %d times", n)
	}
}

// TestWaitingGoroutineDeliversWhatWorkersParked: a batch parked while
// another worker held the token is delivered by the goroutine that waits
// for the workers, with no further flush from any of them.
func TestWaitingGoroutineDeliversWhatWorkersParked(t *testing.T) {
	var c soloConsumer
	ctx := &ExecContext{Threads: 2, Clock: fakeClock{now: 5}, M: metrics.NewCollector(2)}
	ctx.Out = NewOutbox(c.emit, pool.New())
	done := serving(ctx.Out)
	ctx.Out.token.Lock() // another worker delivering inline
	k := NewSink(ctx, 1)
	for i := 0; i < 7; i++ {
		k.Match(tuple.Tuple{TS: 1, Key: 1}, tuple.Tuple{TS: 2, Key: 1})
	}
	k.Refresh() // finds the token taken and parks
	if st := ctx.Out.stats(); st.Parked != 1 || st.Delivered != 0 {
		t.Fatalf("a flush that found the token taken: %+v", st)
	}
	ctx.Out.token.Unlock()
	waitFor(t, "the waiting goroutine delivers the parked batch", func() bool { return ctx.Out.stats().Delivered == 1 })
	if len(ctx.Out.parked) != 0 {
		t.Fatalf("%d batches still parked", len(ctx.Out.parked))
	}
	k.Close()
	done()
	if c.seen != 7 {
		t.Fatalf("%d of 7 results delivered", c.seen)
	}
}

// TestServeReturnsWithTheBacklogDelivered: what is parked when the workers
// are done is delivered before serve returns, also when no wake-up is left
// for it — the case of a deliverer that found the backlog empty just before
// the batch was parked and was still holding the token.
func TestServeReturnsWithTheBacklogDelivered(t *testing.T) {
	var c soloConsumer
	o := NewOutbox(c.emit, pool.New())
	err := serveWork(o, func() error {
		o.parked <- fullBatch(o, 7) // a park whose wake-up that deliverer took
		return nil
	})
	if err != nil || c.seen != 7 || len(o.parked) != 0 {
		t.Fatalf("serve returned %v with %d of 7 results delivered and %d batches parked", err, c.seen, len(o.parked))
	}
}

// TestEmitPanicFailsTheOutboxAndFreesTheWorkers: a consumer that panics
// while the backlog is full and a flush waits for room fails the outbox;
// the waiting flush returns, later batches are dropped, the run's serve
// returns, and err says what happened.
func TestEmitPanicFailsTheOutboxAndFreesTheWorkers(t *testing.T) {
	stall, entered := make(chan struct{}), make(chan struct{})
	o := NewOutbox(func(tuple.JoinResult) {
		close(entered)
		<-stall
		panic("consumer gave up")
	}, pool.New())
	done := serving(o)
	stuck := make(chan struct{})
	go func() { // the worker stuck in the consumer when it panics
		o.release(o.flush(fullBatch(o, 10)))
		close(stuck)
	}()
	<-entered
	for i := 0; i < maxParked; i++ {
		o.release(o.flush(fullBatch(o, 10)))
	}
	beyond := make(chan struct{})
	go func() {
		o.release(o.flush(fullBatch(o, 10)))
		close(beyond)
	}()
	waitFor(t, "the flush beyond the bound waits", func() bool { return o.stats().Waits == 1 })
	close(stall)
	<-stuck
	<-beyond
	o.release(o.flush(fullBatch(o, 10)))
	done()
	if err := o.err(); err == nil || !strings.HasPrefix(err.Error(), "core: emit: panic: consumer gave up") {
		t.Fatalf("err = %v", err)
	}
	if st := o.stats(); st.Delivered != 0 || len(o.parked) != 0 {
		t.Fatalf("after the panic: %+v, %d still parked", st, len(o.parked))
	}
}

// emitRun is one emit-mode run of workers sinks, each booking and emitting
// perWorker matches, on a fresh outbox over p; it returns the pool traffic.
func emitRun(t *testing.T, p *pool.Pool, c *soloConsumer, workers, perWorker int) metrics.PoolStats {
	t.Helper()
	before := p.Stats()
	ctx := &ExecContext{Threads: workers, Clock: fakeClock{now: 5}, M: metrics.NewCollector(workers), pool: p}
	ctx.Out = NewOutbox(c.emit, p)
	_ = serveWork(ctx.Out, func() error {
		ctx.Parallel(func(tid int) {
			k := NewSink(ctx, tid)
			for i := 0; i < perWorker; i++ {
				k.Match(tuple.Tuple{TS: 1, Key: 1}, tuple.Tuple{TS: 2, Key: 1})
			}
			k.Close()
		})
		return nil
	})
	if n, want := ctx.M.Snapshot("x", 0, 1).Matches, int64(workers*perWorker); n != want {
		t.Fatalf("%d matches booked, want %d", n, want)
	}
	if n := len(ctx.Out.parked); n != 0 {
		t.Fatalf("%d batches parked after the run", n)
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
// allocates its result batch, delivery hands it back, and the second run
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

// digestConsumer does the work of oracle.Sink, the digest every verified
// run emits into: one keyed hash of each result, two dependent 64×64→128
// multiplies folded hi⊕lo, added into a count, a sum and an xor.
type digestConsumer struct{ count, sum, xor uint64 }

func mumBench(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func (d *digestConsumer) emit(jr tuple.JoinResult) {
	inner := mumBench(uint64(jr.TS)^0xa0761d6478bd642f, (uint64(uint32(jr.Key))<<32|uint64(uint32(jr.PayloadR)))^0xe7037ed1a0b428db)
	h := mumBench(inner^0x8ebc6af09c88c6e3, uint64(uint32(jr.PayloadS))^0x589965cc75374cc3)
	d.count++
	d.sum += h
	d.xor ^= h
}

// BenchmarkOutbox is the output path alone: two producers flush full
// batches as fast as they can fill them into one outbox whose consumer
// costs what oracle.Sink does, and the goroutine that waits for them
// delivers. ns/result is the whole path's cost per result; the consumer's
// own is its floor.
func BenchmarkOutbox(b *testing.B) {
	const producers = 2
	var d digestConsumer
	o := NewOutbox(d.emit, pool.New())
	perProducer := max(b.N/(producers*MatchBatch), 1)
	b.ResetTimer()
	_ = serveWork(o, func() error {
		(&ExecContext{Threads: producers}).Parallel(func(tid int) {
			buf := o.batch()
			for i := 0; i < perProducer; i++ {
				for j := 0; j < MatchBatch; j++ {
					buf = append(buf, tuple.JoinResult{TS: int64(j), Key: int32(i), PayloadR: int32(tid), PayloadS: int32(j)})
				}
				buf = o.flush(buf)
			}
			o.release(buf)
		})
		return nil
	})
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(producers*perProducer*MatchBatch), "ns/result")
	if d.count == 0 {
		b.Fatal("nothing was delivered")
	}
}
