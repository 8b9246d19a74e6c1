package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/tuple"
)

// maxParked bounds the outbox's backlog, and with it the memory of the
// output path: at most maxParked parked batches plus one per worker, of
// MatchBatch results each, whatever the consumer's speed.
const maxParked = 16

// Outbox carries the materialized results of one Join or JoinWindowed*
// call from its workers to the caller's consumer, a batch at a time, such
// that the consumer is never entered by two goroutines at once and a
// worker never waits for it while the backlog has room.
//
// A worker flushing a batch tries for the delivery token. With it, the
// worker runs the consumer over its own batch and then over every batch
// parked meanwhile. Without it, the worker parks the batch for the token's
// holder, takes an empty one and goes on joining; only a full backlog
// makes it wait. A parker looks at the token again after parking and a
// holder looks at the backlog again after releasing, so a parked batch
// always has somebody to deliver it.
//
// A count-only run has no outbox: ExecContext.Out is nil, and stats and
// Close accept the nil receiver.
type Outbox struct {
	emit func(tuple.JoinResult)
	pool *pool.Pool

	// delivering is the delivery token, and delivered, the batches handed
	// to the consumer, is written by its holder; nParked mirrors
	// len(parked) so that producers can poll the backlog without the mutex.
	delivering atomic.Bool
	delivered  atomic.Int64
	nParked    atomic.Int32

	// mu guards the lists and the counters. It is held to move a slice
	// header, never while the consumer runs. The pad keeps it off the line
	// waiting producers poll.
	_      [28]byte
	mu     sync.Mutex
	parked [][]tuple.JoinResult // the backlog, oldest first
	free   [][]tuple.JoinResult // empty batches
	counts metrics.OutputStats  // all but Delivered
}

// NewOutbox returns the outbox of one call: emit is the caller's consumer,
// p the pool result batches come from and go back to (nil allocates). The
// caller Closes it when the call's last run has returned. A nil emit — a
// count-only call — gets no outbox.
func NewOutbox(emit func(tuple.JoinResult), p *pool.Pool) *Outbox {
	if emit == nil {
		return nil
	}
	return &Outbox{emit: emit, pool: p, parked: make([][]tuple.JoinResult, 0, maxParked)}
}

// batch returns an empty result batch.
func (o *Outbox) batch() []tuple.JoinResult {
	var b []tuple.JoinResult
	o.mu.Lock()
	if l := len(o.free); l > 0 {
		b = o.free[l-1]
		o.free = o.free[:l-1]
	}
	o.mu.Unlock()
	if b == nil {
		b = o.pool.Results(MatchBatch)
	}
	return b
}

// release takes back an empty batch.
func (o *Outbox) release(b []tuple.JoinResult) {
	if cap(b) == 0 {
		return
	}
	o.mu.Lock()
	o.free = append(o.free, b[:0])
	o.mu.Unlock()
}

// flush sees the results of b to the consumer and returns an empty batch
// to go on with. An empty b is the caller's chance to deliver what others
// have parked.
func (o *Outbox) flush(b []tuple.JoinResult) []tuple.JoinResult {
	for waited := false; len(b) > 0; waited = true {
		if o.delivering.CompareAndSwap(false, true) {
			o.deliver(b)
			o.deliverParked()
			o.delivering.Store(false)
			b = b[:0]
		} else if o.park(b, waited) {
			b = o.batch()
		} else {
			// The backlog is full and somebody is delivering: wait for
			// room, polling without the mutex the deliverer needs.
			for spins := 0; o.delivering.Load() && o.nParked.Load() >= maxParked; spins++ {
				if spins < 64 {
					runtime.Gosched()
				} else {
					time.Sleep(10 * time.Microsecond)
				}
			}
		}
	}
	o.drain()
	return b
}

// park appends b to the backlog unless that is full; waited tells that
// this flush has been counted as waiting already.
func (o *Outbox) park(b []tuple.JoinResult, waited bool) bool {
	o.mu.Lock()
	room := len(o.parked) < maxParked
	if room {
		o.parked = append(o.parked, b)
		o.nParked.Store(int32(len(o.parked)))
		o.counts.Parked++
		o.counts.PeakBacklog = max(o.counts.PeakBacklog, int64(len(o.parked)))
	} else if !waited {
		o.counts.Waits++
	}
	o.mu.Unlock()
	return room
}

// drain delivers the backlog if there is one and nobody else is
// delivering. It repeats because a batch may be parked between the last
// look at the backlog and the token's release.
func (o *Outbox) drain() {
	for o.nParked.Load() > 0 && o.delivering.CompareAndSwap(false, true) {
		o.deliverParked()
		o.delivering.Store(false)
	}
}

// deliver runs the consumer over b. Call with the token held.
func (o *Outbox) deliver(b []tuple.JoinResult) {
	for i := range b {
		o.emit(b[i])
	}
	o.delivered.Add(1)
}

// deliverParked delivers the backlog, oldest batch first, until it is
// empty. Call with the token held.
func (o *Outbox) deliverParked() {
	for b := o.next(nil); b != nil; b = o.next(b) {
		o.deliver(b)
	}
}

// next takes back done, a batch just delivered, and returns the oldest
// parked batch, nil when the backlog is empty.
func (o *Outbox) next(done []tuple.JoinResult) []tuple.JoinResult {
	var b []tuple.JoinResult
	o.mu.Lock()
	if done != nil {
		o.free = append(o.free, done[:0])
	}
	if len(o.parked) > 0 {
		b = o.parked[0]
		o.parked = o.parked[:copy(o.parked, o.parked[1:])]
		o.nParked.Store(int32(len(o.parked)))
	}
	o.mu.Unlock()
	return b
}

// stats reads the outbox's counters.
func (o *Outbox) stats() metrics.OutputStats {
	if o == nil {
		return metrics.OutputStats{}
	}
	o.mu.Lock()
	st := o.counts
	o.mu.Unlock()
	st.Delivered = o.delivered.Load()
	return st
}

// Close delivers whatever is still parked, waiting for a delivery in
// progress to end, and returns the batches to the pool. Call it when every
// worker that flushed into the outbox has closed its sink.
func (o *Outbox) Close() {
	if o == nil {
		return
	}
	for !o.delivering.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
	o.deliverParked()
	o.delivering.Store(false)
	o.mu.Lock()
	free := o.free
	o.free = nil
	o.mu.Unlock()
	for _, b := range free {
		o.pool.PutResults(b)
	}
}
