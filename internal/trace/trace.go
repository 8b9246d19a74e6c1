// Package trace is the observability substrate of the reproduction: it
// keeps the per-worker span rings of traced runs and exports them. Where
// Result.PhaseNs answers "how long did each phase take in total", a trace
// answers "when was worker 3 in the merge phase, and for how long" — the
// view that exposes skew-induced stragglers and barrier stalls.
//
// The record itself is metrics.ThreadMetrics: a phase change reads the
// clock once, books the stretch it closes to the run's phase times and, in
// a traced run, hands the same stretch to the worker's metrics.Ring as a
// span. This package reads no clock on that path. A full ring halves its
// resolution instead of dropping spans, so a trace always adds up to the
// run's PhaseNs, per worker and phase, to the nanosecond. An untraced run
// has no ring and pays one nil check per phase change.
//
// A Recorder holds the rings across runs and is read once its runs have
// returned. WriteChrome renders its spans as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing), Analyze turns them into
// imbalance, barrier-stall and straggler verdicts, and JournalWriter
// appends machine-readable JSONL run summaries — the one serialized form
// of a run — each stamped with a runtime/metrics reading taken as it is
// written; the package starts no goroutine. See OBSERVABILITY.md for the
// span model and schema.
package trace

import (
	"sort"

	"repro/internal/metrics"
)

// Span is one worker's stretch of one run with its per-phase time and
// tuples; see metrics.Span for fine and coarse spans. StartNs and EndNs
// count from the recorder's epoch.
type Span = metrics.Span

// defaultSpans bounds each worker's ring: 6Ki spans x 128 bytes = 768 KiB
// per worker. A run that records more keeps all of its time at a coarser
// resolution.
const defaultSpans = 6 << 10

// Recorder owns the per-worker rings of one or more runs. Construct one per
// process (or per benchmark sweep) and hand it to each run; StartRun names
// the run and attaches the rings to its workers. It records one run at a
// time and is read only between runs.
type Recorder struct {
	epoch    int64 // phase clock at construction; spans count from it
	capacity int   // of each ring
	rings    []*metrics.Ring
	algs     []string
}

// NewRecorder returns an empty recorder; StartRun grows it to each run's
// worker count.
func NewRecorder() *Recorder { return newRecorder(defaultSpans) }

func newRecorder(spansPerWorker int) *Recorder {
	return &Recorder{epoch: metrics.NowNs(), capacity: spansPerWorker, algs: []string{"?"}}
}

// StartRun registers the run name alg and attaches ring tid to worker tid
// of the run's collector m, growing the rings to m's worker count. Call it
// before the run starts; the allocation happens here, never while
// recording.
func (r *Recorder) StartRun(alg string, m *metrics.Collector) {
	if r == nil {
		return
	}
	idx := -1
	for i, a := range r.algs {
		if a == alg {
			idx = i
			break
		}
	}
	if idx < 0 {
		idx = len(r.algs)
		r.algs = append(r.algs, alg)
	}
	for len(r.rings) < m.Threads() {
		r.rings = append(r.rings, metrics.NewRing(r.capacity))
	}
	for tid := 0; tid < m.Threads(); tid++ {
		m.T(tid).Trace(r.rings[tid], int32(idx))
	}
}

// Algorithms returns the registered run names; Span.Alg indexes into it.
// Index 0, "?", tags spans a full ring had to merge across runs.
func (r *Recorder) Algorithms() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.algs...)
}

// AlgName resolves a span's run index; out-of-range yields "?".
func (r *Recorder) AlgName(i int32) string {
	if r == nil || i < 0 || int(i) >= len(r.algs) {
		return "?"
	}
	return r.algs[i]
}

// Snapshot returns every worker's spans, rebased to the recorder's epoch,
// merged and sorted by start time.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for tid, ring := range r.rings {
		for _, s := range ring.Spans() {
			s.TID = int32(tid)
			s.StartNs -= r.epoch
			s.EndNs -= r.epoch
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNs != out[j].StartNs {
			return out[i].StartNs < out[j].StartNs
		}
		return out[i].TID < out[j].TID
	})
	return out
}

// layout calls fn for each phase span s renders, in phase order, with the
// start it is drawn at: a fine span's one phase at StartNs, a coarse
// span's phases with time or tuples back to back from StartNs.
func layout(s *Span, fn func(p metrics.Phase, atNs int64)) {
	at := s.StartNs
	for p := range s.Ns {
		if int32(p) != s.Phase && s.Ns[p] == 0 && s.Tuples[p] == 0 {
			continue
		}
		fn(metrics.Phase(p), at)
		at += s.Ns[p]
	}
}
