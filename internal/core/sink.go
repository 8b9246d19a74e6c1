package core

import (
	"repro/internal/metrics"
	"repro/internal/tuple"
)

// MatchBatch is how many matches/probes a worker records between clock
// samples when timestamping matches; it bounds the measurement overhead
// the way the paper keeps its RDTSC overhead below 5% of execution time.
const MatchBatch = 1024

// Sink records join matches for one worker thread: it timestamps matches
// with a batched clock sample, computes the paper's latency definition
// (emission time minus the larger input arrival timestamp), and forwards
// materialized results when the run requests them. Timestamps count from
// ExecContext.BaseTS: the sink subtracts it, so latencies and emitted
// results are window-relative whatever the inputs' origin. A Sink must
// only be used by its owning goroutine.
type Sink struct {
	ctx *ExecContext
	tm  *metrics.ThreadMetrics

	nowMs   int64
	pending int
}

// NewSink creates the sink for worker tid.
func NewSink(ctx *ExecContext, tid int) *Sink {
	return &Sink{ctx: ctx, tm: ctx.M.T(tid), nowMs: ctx.Clock.NowMs()}
}

// Match records one match between r and s.
func (k *Sink) Match(r, s tuple.Tuple) {
	last := max(r.TS, s.TS) - k.ctx.BaseTS
	k.tm.Matches(1, k.nowMs, last)
	if k.ctx.Emit != nil {
		jr := tuple.ResultOf(r, s)
		jr.TS = last
		k.ctx.Emit(jr)
	}
	k.pending++
	if k.pending >= MatchBatch {
		k.pending = 0
		k.nowMs = k.ctx.Clock.NowMs()
	}
}

// Refresh resamples the clock; call between probe batches so match
// timestamps stay current even when few matches are produced.
func (k *Sink) Refresh() { k.nowMs = k.ctx.Clock.NowMs() }
