package core

import (
	"math"

	"repro/internal/hashtable"
	"repro/internal/metrics"
	"repro/internal/tuple"
)

// MatchBatch is how many matches/probes a worker records between clock
// samples when timestamping matches; it bounds the measurement overhead
// the way the paper keeps its RDTSC overhead below 5% of execution time.
// A worker's result batch holds as many results.
const MatchBatch = 1024

// Sink records join matches for one worker thread: it timestamps matches
// with a batched clock sample, computes the paper's latency definition
// (emission time minus the larger input arrival timestamp), and, when the
// run materializes its output, writes the results into the worker's batch
// for the run's Outbox to deliver. Timestamps count from
// ExecContext.BaseTS: the sink subtracts it, so latencies and emitted
// results are window-relative whatever the inputs' origin.
//
// Matches arrive a run at a time: one tuple of one input with a run of
// tuples of the other that all match it — a probe tuple with the stored run
// of its key (Hits), a row or the column of a merge-join rectangle (Rect);
// Match is the run of length one. A run is booked as the per-match
// definition (metrics.ThreadMetrics.Matches) would book it, match by match
// in the run's order, with the clock sampled after every MatchBatch-th
// match: what differs is the cost, one latency bucket computation per
// stretch of matches that share a bucket and one progress update per clock
// sample. The counts reach the collector at clock samples, so a worker must
// Close its sink when it has produced its last match. A Sink must only be
// used by its owning goroutine.
type Sink struct {
	ctx  *ExecContext
	tm   *metrics.ThreadMetrics
	base int64 // ctx.BaseTS

	nowMs   int64
	pending int   // matches since the last MatchBatch-driven clock sample
	atNow   int64 // matches timestamped nowMs not yet booked as emitted
	runs    int64 // runs they arrived in

	// The open latency run: n matches whose later input was due within
	// [lo, lo+span], the times that share one latency bucket at nowMs;
	// minLast is the earliest of them, the run's largest latency.
	lo      int64
	span    uint64
	bucket  int // the run's latency histogram bucket
	n       int64
	minLast int64

	out *Outbox
	buf []tuple.JoinResult // the batch being filled; nil when only counting
}

// NewSink creates the sink for worker tid.
func NewSink(ctx *ExecContext, tid int) *Sink {
	k := &Sink{ctx: ctx, tm: ctx.M.T(tid), base: ctx.BaseTS, nowMs: ctx.Clock.NowMs(), minLast: math.MaxInt64, out: ctx.Out}
	k.bracket(0)
	if k.out != nil {
		k.buf = k.out.batch()
	}
	return k
}

// bracket sets [lo, lo+span] to the due times that share last's latency
// bucket at nowMs. Every time at or after nowMs has latency 0.
func (k *Sink) bracket(last int64) {
	idx, least, most := metrics.Bucket(k.nowMs - last)
	k.bucket = idx
	if idx == 0 {
		k.lo, k.span = k.nowMs, uint64(math.MaxInt64-k.nowMs)
		return
	}
	k.lo, k.span = k.nowMs-most, uint64(most-least)
}

// reopen books the open run of n matches, the earliest due at minLast, and
// opens the run of a match due at last, outside the bracket. The counting
// loops keep the run in registers, so they pass it in and take the new
// bracket back.
func (k *Sink) reopen(n, minLast, last int64) (lo int64, span uint64) {
	k.tm.Latencies(k.bucket, n, k.nowMs-minLast)
	k.bracket(last)
	return k.lo, k.span
}

// book hands everything recorded since the last clock sample to the
// collector.
func (k *Sink) book() {
	k.tm.Latencies(k.bucket, k.n, k.nowMs-k.minLast)
	k.n, k.minLast = 0, math.MaxInt64
	k.tm.Emitted(k.atNow, k.runs, k.nowMs)
	k.atNow, k.runs = 0, 0
}

// sample books what was recorded at the old clock sample and takes a new
// one; the bracket moves with it.
func (k *Sink) sample() {
	k.book()
	k.nowMs = k.ctx.Clock.NowMs()
	k.bracket(k.lo)
}

// advance counts n recorded matches towards the next clock sample.
func (k *Sink) advance(n int) {
	k.atNow += int64(n)
	k.pending += n
	if k.pending >= MatchBatch {
		k.pending = 0
		k.sample()
	}
}

// Match records one match between r and s.
func (k *Sink) Match(r, s tuple.Tuple) {
	last := max(r.TS, s.TS) - k.base
	if uint64(last-k.lo) > k.span {
		k.reopen(k.n, k.minLast, last)
		k.n, k.minLast = 0, last
	}
	k.n++
	k.minLast = min(k.minLast, last)
	if k.out != nil {
		if len(k.buf) == cap(k.buf) {
			k.buf = k.out.flush(k.buf)
		}
		jr := tuple.ResultOf(r, s)
		jr.TS = last
		k.buf = append(k.buf, jr)
	}
	k.runs++
	k.advance(1)
}

// Hits records the matches of one probe batch: every hit's probe tuple
// with each tuple of its stored run, in run order. storedR tells whether
// the stored tuples are R's.
func (k *Sink) Hits(hits []hashtable.Hit, storedR bool) {
	k.runs += int64(len(hits))
	for len(hits) > 0 {
		// The whole hits that fit before the next clock sample go through
		// the counting loop together; at unique keys that is all of them.
		room, n, m := MatchBatch-k.pending, 0, 0
		for n < len(hits) && m+len(hits[n].Stored) <= room {
			m += len(hits[n].Stored)
			n++
		}
		if n == 0 { // a run the sample falls in: run splits it there
			k.run(hits[0].Probe, hits[0].Stored, storedR)
			hits = hits[1:]
			continue
		}
		k.count(hits[:n])
		if k.out != nil {
			for i := range hits[:n] {
				k.emit(hits[i].Probe, hits[i].Stored, storedR)
			}
		}
		hits = hits[n:]
		k.advance(m)
	}
}

// Rect records the matches of one merge-join rectangle: every tuple of
// rRun matches every tuple of sRun, in row order — rRun[0] with all of
// sRun first. A rectangle one S tuple wide is a single run down its
// column, which is its row order.
func (k *Sink) Rect(rRun, sRun []tuple.Tuple) {
	switch {
	case len(rRun) == 0 || len(sRun) == 0:
	case len(sRun) > 1:
		k.runs += int64(len(rRun))
		for _, r := range rRun {
			k.run(r, sRun, false)
		}
	case len(rRun) > 1:
		k.runs++
		k.run(sRun[0], rRun, true)
	default:
		// Unique keys: a merge join over them calls once per match, and
		// the run walk's set-up costs twice what Match does.
		k.Match(rRun[0], sRun[0])
	}
}

// run records one with every tuple of row, in order, sampling the clock
// where it falls due; rowR tells whether row's tuples are R's.
func (k *Sink) run(one tuple.Tuple, row []tuple.Tuple, rowR bool) {
	for len(row) > 0 {
		take := min(len(row), MatchBatch-k.pending)
		k.countRow(one, row[:take])
		if k.out != nil {
			k.emit(one, row[:take], rowR)
		}
		row = row[take:]
		k.advance(take)
	}
}

// count adds the matches of hits — every probe tuple with each tuple of its
// stored run — to the open latency run, reopening it where a match leaves
// the bracket.
//
//iawj:hotpath
func (k *Sink) count(hits []hashtable.Hit) {
	base, lo, span, n, minLast := k.base, k.lo, k.span, k.n, k.minLast
	for i := range hits {
		pts := hits[i].Probe.TS
		for _, s := range hits[i].Stored {
			last := max(pts, s.TS) - base
			if uint64(last-lo) > span {
				lo, span = k.reopen(n, minLast, last)
				n, minLast = 0, last
			}
			n++
			minLast = min(minLast, last)
		}
	}
	k.n, k.minLast = n, minLast
}

// countRow is count for one tuple against a stretch of a run: what a
// merge-join row is, without a hit made of it.
//
//iawj:hotpath
func (k *Sink) countRow(one tuple.Tuple, row []tuple.Tuple) {
	ots, base, lo, span, n, minLast := one.TS, k.base, k.lo, k.span, k.n, k.minLast
	for _, s := range row {
		last := max(ots, s.TS) - base
		if uint64(last-lo) > span {
			lo, span = k.reopen(n, minLast, last)
			n, minLast = 0, last
		}
		n++
		minLast = min(minLast, last)
	}
	k.n, k.minLast = n, minLast
}

// room returns the free part of the worker's batch, flushing the batch to
// the outbox first when it is full.
func (k *Sink) room() []tuple.JoinResult {
	if len(k.buf) == cap(k.buf) {
		k.buf = k.out.flush(k.buf)
	}
	return k.buf[len(k.buf):cap(k.buf)]
}

// emit materializes one with every tuple of row into the worker's batch.
func (k *Sink) emit(one tuple.Tuple, row []tuple.Tuple, rowR bool) {
	for len(row) > 0 {
		room := k.room()
		n := min(len(room), len(row))
		fillRow(room[:n], one, row[:n], k.base, rowR)
		k.buf = k.buf[:len(k.buf)+n]
		row = row[n:]
	}
}

// fillRow writes the result of one with each tuple of row into dst, which
// holds one slot per tuple of row; rowR tells whether row's tuples are R's
// (and one is S's). The slice-advance walk is bounds-check free where an
// index walk is not (LINTING.md §BCE).
//
//iawj:hotpath
func fillRow(dst []tuple.JoinResult, one tuple.Tuple, row []tuple.Tuple, base int64, rowR bool) {
	for ; len(row) > 0 && len(dst) > 0; row, dst = row[1:], dst[1:] {
		r, s := one, row[0]
		if rowR {
			r, s = s, r
		}
		jr := tuple.ResultOf(r, s)
		jr.TS -= base
		dst[0] = jr
	}
}

// Refresh resamples the clock; call between probe batches so match
// timestamps stay current even when few matches are produced. It also
// hands the results gathered so far to the outbox, and delivers what other
// workers left there if nobody else is delivering: an eager worker
// refreshes every pull round, so a result waits at most one round.
func (k *Sink) Refresh() {
	if k.out != nil {
		k.buf = k.out.flush(k.buf)
	}
	k.sample()
}

// Close books the matches recorded since the last clock sample, flushes
// the worker's last results and returns its batch. The worker calls it
// once it has produced its last match.
func (k *Sink) Close() {
	k.book()
	if k.out != nil {
		k.out.release(k.out.flush(k.buf))
		k.buf = nil
	}
}
