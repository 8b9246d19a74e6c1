//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package core

import (
	"strings"
	"testing"
	"testing/synctest"

	"repro/internal/pool"
	"repro/internal/tuple"
)

// TestBubbleOutbox runs the outbox's parking, exactly-once and
// panicking-Emit scenarios inside synctest bubbles (TESTING.md, "Bubbles"):
// a worker, deliverer or consumer a scenario leaves blocked fails the
// bubble as a deadlock, and synctest.Run returns only once all of them
// have exited.
//
// The parking and panicking scenarios stall the consumer on the
// deliverer's goroutine, not a worker's as their plain versions do: a
// goroutine waiting for a sync.Mutex is not durably blocked, so a
// deliverer waiting for the token of a stalled worker would keep
// synctest.Wait from ever returning.
func TestBubbleOutbox(t *testing.T) {
	for _, sc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"parking", bubbleParking},
		{"exactly-once", TestOutboxDeliversExactlyOnceAndNeverConcurrently},
		{"emit-panic", bubbleEmitPanic},
	} {
		t.Run(sc.name, func(t *testing.T) {
			synctest.Run(func() { sc.run(t) })
		})
	}
}

// stalledDeliverer serves o and stalls its consumer in the deliverer: the
// test parks one batch while it holds the token, as a worker delivering
// inline would, and returns once the deliverer has taken the batch into
// the consumer, which waits for stall. done ends the run as serving's does.
func stalledDeliverer(o *Outbox, entered <-chan struct{}) (done func()) {
	done = serving(o)
	o.token.Lock()
	o.release(o.flush(fullBatch(o, 10)))
	o.token.Unlock()
	<-entered
	return done
}

// fillBacklog parks batches up to the bound while the consumer is stalled,
// then starts one flush beyond it and waits until every goroutine of the
// bubble is blocked; the returned channel closes when that flush returns.
func fillBacklog(t *testing.T, o *Outbox) (beyond chan struct{}) {
	t.Helper()
	for i := 0; i < maxParked; i++ {
		o.release(o.flush(fullBatch(o, 10)))
	}
	beyond = make(chan struct{})
	go func() {
		o.release(o.flush(fullBatch(o, 10)))
		close(beyond)
	}()
	synctest.Wait()
	select {
	case <-beyond:
		t.Fatal("a flush beyond the backlog bound returned while the consumer was stalled")
	default:
	}
	if st := o.stats(); st.Waits != 1 || st.Parked != maxParked+1 || st.PeakBacklog != maxParked || len(o.parked) != maxParked {
		t.Fatalf("with the backlog full: %+v, %d parked", st, len(o.parked))
	}
	return beyond
}

// bubbleParking: the flush beyond the bound waits, and once the consumer
// goes on every batch is delivered exactly once, never concurrently.
func bubbleParking(t *testing.T) {
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
	}, new(pool.Pool))
	done := stalledDeliverer(o, entered)
	beyond := fillBacklog(t, o)
	close(stall)
	<-beyond
	done()
	st := o.stats()
	if want := int64(maxParked + 2); st.Delivered != want || c.seen != 10*want || st.Parked != want {
		t.Fatalf("delivered %d batches and %d results of %d parked, want %d and %d", st.Delivered, c.seen, st.Parked, want, 10*want)
	}
	if st.Waits != 1 || len(o.parked) != 0 || c.overlaps.Load() != 0 {
		t.Fatalf("after the drain: %+v, %d still parked, %d concurrent entries", st, len(o.parked), c.overlaps.Load())
	}
}

// bubbleEmitPanic: a consumer that panics while the backlog is full and a
// flush waits for room fails the outbox; the waiting flush returns, later
// batches are dropped, and the run's serve returns.
func bubbleEmitPanic(t *testing.T) {
	stall, entered := make(chan struct{}), make(chan struct{})
	o := NewOutbox(func(tuple.JoinResult) {
		close(entered)
		<-stall
		panic("consumer gave up")
	}, new(pool.Pool))
	done := stalledDeliverer(o, entered)
	beyond := fillBacklog(t, o)
	close(stall)
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
