// Package eager implements the stream-join side of the study (Section
// 3.2): the SHJ and PMJ single-thread stream join algorithms combined with
// the JM (join-matrix) and JB (join-biclique) stream distribution schemes,
// yielding SHJ_JM, SHJ_JB, PMJ_JM and PMJ_JB, plus the handshake-join
// baseline from the related-work validation.
//
// Every worker thread continuously and alternately pulls available tuples
// from its assigned subsets of both input streams — exactly the paper's
// execution model, where a thread stalls only when it consumes tuples
// faster than they arrive. The four algorithms are a product and the code
// is its two factors: worker is the pulling half (scheme × cursors × gate),
// SHJ.Run and PMJ.Run are what happens to the tuples between two pulls.
package eager

import (
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/metrics"
	"repro/internal/tuple"
)

// side names an input stream: a scheme replicates R and partitions S.
type side uint8

const (
	sideR side = iota
	sideS
)

// distribution captures a stream distribution scheme's assignment logic
// for one worker.
type distribution struct {
	threads int
	tid     int
	// JB parameters; groups == 0 selects JM. group is this worker's core
	// group, member its place among the group's groupSize workers — g of
	// them, fewer in a last group that Threads mod g workers make up.
	groups    int
	groupSize int
	group     int
	member    int

	// status is the JB router's dispatch bookkeeping: after each tuple
	// is dispatched the system records the result for future reference
	// (Section 5.3.3); this per-tuple status maintenance is the overhead
	// the paper identifies. A tuple's status is written once, by the
	// worker that keeps it; pending holds the writes staged but not yet
	// made.
	status  statusTable
	pending statusStage

	// tracer models the router's memory traffic (and the cursors' stream
	// reads) in profile runs: the content-sensitive JB scheme accesses
	// per-key state whose footprint exceeds L2 but fits L3, the Figure 8
	// partition-phase signature.
	tracer cachesim.Tracer
}

// statusRegion sizes the traced router-state footprint (16 MiB of logical
// addresses — beyond a scaled L2, within a scaled L3).
const statusRegion = 1 << 20 // 1Mi entries * 16 bytes

// trace records, in a profile run, the routing of one tuple whose key
// hashes to h, and the router-state access of its status write if this
// worker makes it.
func (d *distribution) trace(h uint32, write bool) {
	d.tracer.Op(1) // JM: a modulo; JB: a hash and a modulo
	if write {
		d.tracer.Access(1<<52 + uint64(h%statusRegion)*16)
		d.tracer.Op(2) // status update
	}
}

// newJM builds the join-matrix assignment: content-insensitive, R
// replicated to every thread, S partitioned round-robin.
func newJM(threads, tid int) distribution {
	return distribution{threads: threads, tid: tid}
}

// newJB builds the join-biclique assignment with group size g (in
// [1, threads]: core.Run validates the knob): content-sensitive routing of
// keys to ⌈threads/g⌉ core groups of g consecutive workers, the last one
// short when g does not divide threads; within a group R is replicated
// among its members and S is partitioned round-robin. g == 1 degenerates
// to strict hash partitioning; g == threads to JM with an extra routing
// layer. The router's status table is sized for maxKeys distinct keys, its
// cells taken with take.
func newJB(threads, tid, g, maxKeys int, take func(n int) []uint32) distribution {
	group := tid / g
	return distribution{
		threads:   threads,
		tid:       tid,
		groups:    (threads + g - 1) / g,
		groupSize: min(g, threads-group*g),
		group:     group,
		member:    tid % g,
		status:    newStatusTable(maxKeys, take),
	}
}

// owns reports whether this worker processes the tuple t at position i of
// stream sd. Keys route by the hash the hash tables place them with, so
// routing and placement agree. Under JB it also stages the tuple's status
// write if this worker is the one that makes it; flush makes what is
// staged.
func (d *distribution) owns(sd side, i int, t tuple.Tuple) bool {
	if d.groups == 0 {
		// JM replicates R everywhere and deals S round-robin.
		if d.tracer != nil {
			d.trace(0, false)
		}
		return sd == sideR || i%d.threads == d.tid
	}
	h := hashtable.Hash(t.Key)
	if int(h%uint32(d.groups)) != d.group {
		if d.tracer != nil {
			d.trace(h, false)
		}
		return false
	}
	// Within the group S goes to one member by position, and of R's
	// replicas — one per member — the member S's rule picks records the
	// status: across all workers each dispatched tuple is written exactly
	// once.
	writes := i%d.groupSize == d.member
	if d.tracer != nil {
		d.trace(h, writes)
	}
	if writes && d.pending.push(t.Key, h) {
		d.flush()
	}
	return sd == sideR || writes
}

// flush makes the status writes owns has staged.
func (d *distribution) flush() {
	if d.pending.n > 0 {
		d.status.flush(&d.pending, int32(d.group))
	}
}

// estOwnersR estimates how many ways R is split, to size a worker's share
// of it: JM replicates R to all workers, JB splits R across groups.
func (d *distribution) estOwnersR() int { return max(1, d.groups) }

// statusBytes estimates the router bookkeeping footprint for memory
// accounting.
func (d *distribution) statusBytes() int64 { return int64(d.status.n) * 16 }

// cursor walks one stream with arrival gating.
type cursor struct {
	rel  tuple.Relation
	side side
	idx  int
	base uint64 // the stream's place in a profile run's address space
}

// done reports whether the stream is exhausted.
func (c *cursor) done() bool { return c.idx >= len(c.rel) }

// batch collects up to max tuples that d owns and that have already
// arrived, starting at the cursor, appending them to buf and advancing
// past non-owned tuples too. gateMs is the round's arrival gate
// (core.ExecContext.GateMs): a tuple stamped later has not arrived. It
// returns the filled buffer and whether the scan stopped because the next
// tuple has not arrived yet. The status writes of the scanned tuples are
// made before it returns. d is an argument, not a cursor field: a cursor
// pointing into the worker that holds it would move the worker to the heap.
//
//iawj:hotpath
func (c *cursor) batch(buf []tuple.Tuple, max int, gateMs int64, atRest bool, d *distribution) ([]tuple.Tuple, bool) {
	taken := 0
	// The fields are staged into locals for the scan: indexing through
	// c.idx keeps a bounds check per tuple because the prover must assume
	// the owns call mutates the cursor (LINTING.md §BCE).
	rel, tr := c.rel, d.tracer
	i := c.idx
	waiting := false
	for i >= 0 && i < len(rel) && taken < max {
		t := rel[i]
		if !atRest && t.TS > gateMs {
			waiting = true
			break
		}
		if tr != nil {
			tr.Access(c.base + uint64(i)*16)
			tr.Op(2)
		}
		if d.owns(c.side, i, t) {
			buf = append(buf, t)
			taken++
		}
		i++
	}
	c.idx = i
	d.flush()
	return buf, waiting
}

// stall is how long a starved eager worker sleeps before re-polling.
const stall = 20 * time.Microsecond

// worker is the pulling half of an eager join, the same for every
// algorithm × scheme: a worker's distribution, its cursors over both
// streams, the current round's arrival gate, and the timing of what happens
// between pulls. It lives on its goroutine's stack — built by value,
// holding no pointer to itself — so a window allocates nothing for it.
type worker struct {
	ctx  *core.ExecContext
	tid  int
	sink *core.Sink
	dist distribution
	r, s cursor

	atRest  bool
	gate    int64 // this round's arrival gate
	waiting bool  // a pull of this round stopped at a tuple yet to arrive
}

// newWorker builds worker tid of a join under the JB or the JM scheme.
// base places its stream reads in a profile run's traced address space. A
// JB router sees every tuple of both streams, which bounds its keys.
func newWorker(ctx *core.ExecContext, tid int, jb bool, base uint64) worker {
	w := worker{
		ctx:    ctx,
		tid:    tid,
		sink:   core.NewSink(ctx, tid),
		dist:   newJM(ctx.Threads, tid),
		r:      cursor{rel: ctx.R, side: sideR, base: base},
		s:      cursor{rel: ctx.S, side: sideS, base: base | 1<<45},
		atRest: ctx.Clock.AtRest(),
	}
	if jb {
		w.dist = newJB(ctx.Threads, tid, ctx.Knobs.GroupSize, len(ctx.R)+len(ctx.S), func(n int) []uint32 { return ctx.U32(tid, n) })
	}
	w.dist.tracer = ctx.Tracer
	return w
}

// next opens a pull round unless both streams are exhausted. The arrival
// gate is sampled once for the round's pulls and the sink refreshed every
// round: a worker's results leave within a round of being found, and a
// worker that found none delivers what the others have parked.
func (w *worker) next() bool {
	if w.r.done() && w.s.done() {
		return false
	}
	w.gate = w.ctx.GateMs()
	w.sink.Refresh()
	w.waiting = false
	return true
}

// pull appends up to a batch (Knobs.BatchSize) of cursor c's owned and
// arrived tuples to buf.
func (w *worker) pull(c *cursor, buf []tuple.Tuple) []tuple.Tuple {
	buf, waiting := c.batch(buf, w.ctx.Knobs.BatchSize, w.gate, w.atRest, &w.dist)
	w.waiting = w.waiting || waiting
	return buf
}

// begin opens a measured stretch of phase ph. The eager loops measure
// sub-batch phases with explicit begin/end pairs — no phase change per
// tuple, no closure per phase — and book no phase between the pairs.
func (w *worker) begin(ph metrics.Phase) { w.ctx.Begin(w.tid, ph) }

// end closes the stretch begin opened, attributing n tuples to it.
func (w *worker) end(n int) {
	tm := w.ctx.M.T(w.tid)
	tm.AddTuples(int64(n))
	tm.End()
}

// starved stalls a worker whose round pulled nothing because it consumes
// tuples faster than they arrive.
func (w *worker) starved(pulled int) {
	if pulled == 0 && w.waiting {
		w.begin(metrics.PhaseWait)
		w.ctx.Sleep(w.tid, stall)
		w.end(0)
	}
}

// close books and delivers the worker's last matches.
func (w *worker) close() {
	w.sink.Close()
	w.ctx.EndPhase(w.tid)
}
