package core

import (
	"fmt"
	"sync"

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
// that the consumer is never entered by two goroutines at once.
//
// The goroutine that waits for a run's workers delivers (serve): it sleeps
// until a batch is parked or the workers are done, then takes the delivery
// token and empties the backlog. A worker flushing a batch delivers it
// itself only when the token is free and nothing is parked, so that light
// output pays no wake-up; otherwise it parks the batch and goes back to
// joining. Only a full backlog makes it wait, blocked until the deliverer
// frees a slot; it never spins and never delivers the backlog. Batches
// leave the backlog only under the token, so a deliverer that takes the
// token once its workers are done finds each batch they parked delivered
// or still there — also when the runs of several windows share the outbox
// and each window's waiting goroutine delivers.
//
// A panic in the consumer is caught in deliver, the one place it is
// entered: the outbox fails (err) and drops every later batch, so the
// workers finish, blocked by nobody.
//
// A count-only run has no outbox: ExecContext.Out is nil, and stats,
// mark and err accept the nil receiver.
type Outbox struct {
	emit   func(tuple.JoinResult)
	pool   *pool.Pool
	parked chan []tuple.JoinResult // the backlog, oldest first
	wake   chan struct{}           // a batch was parked since a deliverer last looked
	token  sync.Mutex              // held while the consumer runs

	// mu guards the counters and the failure; it is never held while
	// the consumer runs. The pad keeps it off the token's line.
	_       [24]byte
	mu      sync.Mutex
	counts  metrics.OutputStats
	failure error // the consumer's panic
}

// NewOutbox returns the outbox of one call: emit is the caller's consumer,
// p the pool result batches come from and go back to. A nil emit — a
// count-only call — gets no outbox.
func NewOutbox(emit func(tuple.JoinResult), p *pool.Pool) *Outbox {
	if emit == nil {
		return nil
	}
	o := new(Outbox)
	o.open(emit, p)
	return o
}

// open readies o for a call's consumer emit: a new outbox, or one of an
// earlier call that keeps its channels.
func (o *Outbox) open(emit func(tuple.JoinResult), p *pool.Pool) {
	if o.parked == nil {
		o.parked = make(chan []tuple.JoinResult, maxParked)
		o.wake = make(chan struct{}, 1)
	}
	select {
	case <-o.wake: // the last call's deliverer returned before looking
	default:
	}
	o.emit, o.pool, o.counts, o.failure = emit, p, metrics.OutputStats{}, nil
}

// serve delivers what the workers of one run park until the goroutine
// that starts them and waits for them reports on done, and their backlog
// is delivered. It returns the error reported.
func (o *Outbox) serve(done <-chan error) error {
	for {
		select {
		case err := <-done:
			o.deliverParked()
			return err
		case <-o.wake:
			o.deliverParked()
		}
	}
}

// batch returns an empty result batch from the pool.
func (o *Outbox) batch() []tuple.JoinResult { return o.pool.Results(MatchBatch) }

// release gives a delivered batch back to the pool.
func (o *Outbox) release(b []tuple.JoinResult) { o.pool.PutResults(b) }

// flush sees the results of b to the consumer and returns an empty batch
// to go on with: b itself when it delivered b, a fresh one when it parked
// b for the deliverer.
func (o *Outbox) flush(b []tuple.JoinResult) []tuple.JoinResult {
	if len(b) == 0 {
		return b
	}
	if len(o.parked) == 0 && o.token.TryLock() {
		o.deliver(b)
		o.token.Unlock()
		return b[:0]
	}
	select {
	case o.parked <- b:
	default:
		o.mu.Lock()
		o.counts.Waits++
		o.mu.Unlock()
		o.parked <- b
	}
	select {
	case o.wake <- struct{}{}:
	default: // a wake-up is pending already
	}
	o.mu.Lock()
	o.counts.Parked++
	o.counts.PeakBacklog = max(o.counts.PeakBacklog, int64(len(o.parked)))
	o.mu.Unlock()
	return o.batch()
}

// deliverParked takes the token and delivers the backlog, oldest batch
// first, until it is empty.
func (o *Outbox) deliverParked() {
	o.token.Lock()
	defer o.token.Unlock()
	for {
		select {
		case b := <-o.parked:
			o.deliver(b)
			o.release(b)
		default:
			return
		}
	}
}

// deliver runs the consumer over b; call with the token held. A failed
// outbox drops b, and a panic in the consumer fails the outbox.
func (o *Outbox) deliver(b []tuple.JoinResult) {
	if o.err() != nil {
		return
	}
	defer func() {
		if v := recover(); v != nil {
			o.mu.Lock()
			o.failure = fmt.Errorf("core: emit: panic: %v", v)
			o.mu.Unlock()
		}
	}()
	for i := range b {
		o.emit(b[i])
	}
	o.mu.Lock()
	o.counts.Delivered++
	o.mu.Unlock()
}

// err returns the consumer's panic as an error once it has panicked; nil
// before, and for a count-only run.
func (o *Outbox) err() error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.failure
}

// stats reads the outbox's counters.
func (o *Outbox) stats() metrics.OutputStats {
	if o == nil {
		return metrics.OutputStats{}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.counts
}

// mark reads the counters at the start of a run, restarting the peak
// backlog at the backlog the run finds: a run on a shared outbox reports
// its own peak, not one an earlier run reached.
func (o *Outbox) mark() metrics.OutputStats {
	if o == nil {
		return metrics.OutputStats{}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.counts.PeakBacklog = int64(len(o.parked))
	return o.counts
}
