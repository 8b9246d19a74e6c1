// Package eager implements the stream-join side of the study (Section
// 3.2): the SHJ and PMJ single-thread stream join algorithms combined with
// the JM (join-matrix) and JB (join-biclique) stream distribution schemes,
// yielding SHJ_JM, SHJ_JB, PMJ_JM and PMJ_JB, plus the handshake-join
// baseline from the related-work validation.
//
// Every worker thread continuously and alternately pulls available tuples
// from its assigned subsets of both input streams — exactly the paper's
// execution model, where a thread stalls only when it consumes tuples
// faster than they arrive.
package eager

import (
	"sync"
	"time"

	"repro/internal/cachesim"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// distribution captures a stream distribution scheme's assignment logic
// for one worker.
type distribution struct {
	threads int
	tid     int
	// JB parameters; groups == 0 selects JM.
	groups    int
	groupSize int

	// status is the JB router's dispatch bookkeeping: after each tuple
	// is dispatched the system records the result for future reference
	// (Section 5.3.3); this per-tuple status maintenance is the overhead
	// the paper identifies.
	status statusTable

	// tracer models the router's memory traffic in profile runs: the
	// content-sensitive JB scheme accesses per-key state whose footprint
	// exceeds L2 but fits L3, the Figure 8 partition-phase signature.
	tracer cachesim.Tracer
}

// statusRegion sizes the traced router-state footprint (16 MiB of logical
// addresses — beyond a scaled L2, within a scaled L3).
const statusRegion = 1 << 20 // 1Mi entries * 16 bytes

// trace records one router-state access for key k.
func (d *distribution) trace(k int32) {
	if d.tracer == nil {
		return
	}
	if d.groups == 0 {
		d.tracer.Op(1) // JM: a modulo, no state
		return
	}
	h := hash32(k) % statusRegion
	d.tracer.Access(1<<52 + uint64(h)*16)
	d.tracer.Op(3) // hash + status update
}

// newJM builds the join-matrix assignment: content-insensitive, R
// replicated to every thread, S partitioned round-robin.
func newJM(threads, tid int) *distribution {
	return &distribution{threads: threads, tid: tid}
}

// newJB builds the join-biclique assignment with group size g:
// content-sensitive routing of keys to core groups; within a group R is
// replicated among the g members and S is partitioned round-robin.
// g == 1 degenerates to strict hash partitioning; g == threads to JM with
// an extra routing layer. The router's status table is sized for maxKeys
// distinct keys and taken from p; release hands it back.
func newJB(threads, tid, g, maxKeys int, p *pool.Pool) *distribution {
	if g < 1 {
		g = 1
	}
	if g > threads {
		g = threads
	}
	groups := threads / g
	if groups < 1 {
		groups = 1
	}
	return &distribution{
		threads:   threads,
		tid:       tid,
		groups:    groups,
		groupSize: g,
		status:    newStatusTable(maxKeys, p),
	}
}

// release returns the router's pooled state; the distribution must not be
// used afterwards.
func (d *distribution) release(p *pool.Pool) { d.status.release(p) }

// hash32 matches the hash used by the hash tables so routing and
// placement agree.
func hash32(key int32) uint32 {
	x := uint32(key)
	x ^= x >> 16
	x *= 0x45d9f3b
	x ^= x >> 16
	return x
}

// ownsR reports whether this worker processes R tuple t (at stream
// position i).
func (d *distribution) ownsR(i int, t tuple.Tuple) bool {
	d.trace(t.Key)
	if d.groups == 0 {
		return true // JM replicates R everywhere
	}
	h := hash32(t.Key)
	g := int32(h % uint32(d.groups))
	d.status.set(t.Key, h, g) // router status maintenance
	return int(g) == d.tid/d.groupSize
}

// ownsS reports whether this worker processes S tuple t (at position i).
func (d *distribution) ownsS(i int, t tuple.Tuple) bool {
	d.trace(t.Key)
	if d.groups == 0 {
		return i%d.threads == d.tid
	}
	h := hash32(t.Key)
	g := int32(h % uint32(d.groups))
	d.status.set(t.Key, h, g)
	if int(g) != d.tid/d.groupSize {
		return false
	}
	return i%d.groupSize == d.tid%d.groupSize
}

// statusBytes estimates the router bookkeeping footprint for memory
// accounting.
func (d *distribution) statusBytes() int64 { return int64(d.status.n) * 16 }

// cursor walks one stream with arrival gating.
type cursor struct {
	rel tuple.Relation
	idx int

	// tracer/base model the sequential stream reads in profile runs.
	tracer cachesim.Tracer
	base   uint64
}

// done reports whether the stream is exhausted.
func (c *cursor) done() bool { return c.idx >= len(c.rel) }

// batch collects up to max owned, already-arrived tuples starting at the
// cursor, appending them to buf and advancing past non-owned tuples too.
// gateMs is the round's arrival gate (core.ExecContext.GateMs): a tuple
// stamped later has not arrived. It returns the filled buffer and whether
// the scan stopped because the next tuple has not arrived yet.
//
//iawj:hotpath
func (c *cursor) batch(buf []tuple.Tuple, max int, gateMs int64, atRest bool, owns func(i int, t tuple.Tuple) bool) ([]tuple.Tuple, bool) {
	taken := 0
	// The cursor fields are staged into locals for the scan: indexing
	// through c.idx keeps a bounds check per tuple because the prover
	// must assume the owns callback mutates the cursor (LINTING.md §BCE).
	rel := c.rel
	i := c.idx
	for i >= 0 && i < len(rel) && taken < max {
		t := rel[i]
		if !atRest && t.TS > gateMs {
			c.idx = i
			return buf, true
		}
		if c.tracer != nil {
			c.tracer.Access(c.base + uint64(i)*16)
			c.tracer.Op(2)
		}
		//lint:allow hotpathalloc the ownership predicate is the partitioning-strategy hook, per-tuple by design
		if owns(i, t) {
			buf = append(buf, t)
			taken++
		}
		i++
	}
	c.idx = i
	return buf, false
}

// stall is how long a starved eager worker sleeps before re-polling.
const stall = 20 * time.Microsecond

// eagerBatch is the per-pull batch bound (Knobs.BatchSize overrides).
func batchSize(ctx *core.ExecContext) int {
	if ctx.Knobs.BatchSize > 0 {
		return ctx.Knobs.BatchSize
	}
	return 64
}

// makeDist constructs the distribution for a worker given the scheme. A
// JB router sees every tuple of both streams, which bounds its keys.
func makeDist(jb bool, ctx *core.ExecContext, tid int) *distribution {
	var d *distribution
	if jb {
		d = newJB(ctx.Threads, tid, ctx.Knobs.GroupSize, len(ctx.R)+len(ctx.S), ctx.Pool)
	} else {
		d = newJM(ctx.Threads, tid)
	}
	d.tracer = ctx.Tracer
	return d
}

// parallel runs fn on threads workers and waits.
func parallel(threads int, fn func(tid int)) {
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer wg.Done()
			fn(tid)
		}(t)
	}
	wg.Wait()
}

// phaseTimer measures sub-batch phases with explicit start/stop pairs so
// the eager loops avoid two Begin calls per tuple. Each measured stretch
// is also published as one trace span through the worker's preallocated
// ring (tw is nil — and free — when tracing is disabled).
type phaseTimer struct {
	tm  *metrics.ThreadMetrics
	ctx *core.ExecContext
	tw  *trace.Worker
}

// newPhaseTimer binds the timer to worker tid's metrics and trace handles.
func newPhaseTimer(ctx *core.ExecContext, tid int) phaseTimer {
	return phaseTimer{tm: ctx.M.T(tid), ctx: ctx, tw: ctx.TraceWorker(tid)}
}

func (p phaseTimer) time(ph metrics.Phase, fn func()) {
	p.timeCount(ph, func() int64 { fn(); return 0 })
}

// timeCount measures fn like time and attributes its returned tuple count
// to the published span.
func (p phaseTimer) timeCount(ph metrics.Phase, fn func() int64) {
	if p.ctx.Tracer != nil {
		p.ctx.SetPhase(ph)
	}
	start := p.tw.NowNs()
	sw := clock.StartStopwatch()
	n := fn()
	d := sw.ElapsedNs()
	p.tm.AddPhaseNs(ph, d)
	p.tw.Record(int(ph), start, d, n)
}
