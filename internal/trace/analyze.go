package trace

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/metrics"
)

// This file is the span analytics engine: it turns raw per-worker phase
// spans (a trace file, or a recorder's snapshot) into verdicts — which
// phase is imbalanced, how long workers stalled at barriers, which worker
// carries the critical path, and which workers are stragglers and why. It
// is the data layer the ROADMAP's online performance model / autoscaler
// consumes, and what `iawjinspect trace.json` renders.

// StragglerFactor is the busy-time multiple over the per-phase median
// beyond which a worker counts as a straggler.
const StragglerFactor = 2.0

// skewFactor separates the two straggler causes: a straggler whose tuple
// count also exceeds skewFactor x the median worked on more input
// (skew-induced); otherwise it processed a similar share more slowly.
const skewFactor = 1.5

// PhaseStat aggregates one (algorithm, phase) cell of a span snapshot
// across workers.
type PhaseStat struct {
	Algorithm string
	Phase     metrics.Phase
	// Workers is the number of workers that recorded spans in this cell.
	Workers int
	// Spans is how many spans booked time or tuples to the cell; a coarse
	// span counts once in each of its phases.
	Spans int
	// TotalNs / MaxNs / MeanNs summarize per-worker busy time.
	TotalNs int64
	MaxNs   int64
	MeanNs  int64
	// Imbalance is max/mean per-worker busy time: 1.0 is perfectly
	// balanced, 2.0 means the slowest worker carried twice the mean.
	Imbalance float64
	// BarrierStallNs sums, over workers, how long each finished before
	// the cell's last worker — the time lost waiting at the phase
	// barrier. Meaningful for the barrier-synchronized lazy phases;
	// reported for all cells.
	BarrierStallNs int64
}

// Straggler is one flagged worker in one (algorithm, phase) cell.
type Straggler struct {
	Algorithm string
	Phase     metrics.Phase
	TID       int32
	// Ratio is the worker's busy time over the cell median.
	Ratio float64
	// TupleRatio is the worker's tuple count over the cell median (0
	// when the cell recorded no tuples).
	TupleRatio float64
	// Cause attributes the straggle: "skew" when the worker also
	// processed disproportionately many tuples, "slow" when it processed
	// a similar share more slowly (interference, frequency, placement).
	Cause string
}

// AlgSummary is the per-algorithm roll-up.
type AlgSummary struct {
	Algorithm string
	// CriticalTID is the worker with the largest total busy time — the
	// critical path of the run.
	CriticalTID int32
	// CriticalNs is that worker's busy time; TotalNs sums all workers.
	CriticalNs int64
	TotalNs    int64
}

// Analysis is the result of analyzing one span snapshot.
type Analysis struct {
	// Phases holds one entry per (algorithm, phase) cell with spans,
	// ordered by algorithm then phase.
	Phases []PhaseStat
	// Stragglers lists flagged workers, most severe first.
	Stragglers []Straggler
	// Algorithms holds the per-algorithm roll-ups in first-seen order.
	Algorithms []AlgSummary
}

// Analyze aggregates a span snapshot, phase by phase of each span as
// ChromeEvents lays it out, so a snapshot and its Chrome trace analyze
// alike. A coarse span's phases are laid back to back, so the barrier
// stall of its cells is approximate. algName resolves span run indices to
// names (Recorder.AlgName, or the mapping rebuilt from a trace file).
func Analyze(spans []Span, algName func(int32) string) *Analysis {
	type cellKey struct {
		alg   int32
		phase int32
	}
	type workerAgg struct {
		busyNs int64
		tuples int64
		endNs  int64
		spans  int
	}
	cells := map[cellKey]map[int32]*workerAgg{}
	algOrder := []int32{}
	algSeen := map[int32]bool{}
	algBusy := map[int32]map[int32]int64{} // alg -> tid -> busy
	for i := range spans {
		s := &spans[i]
		if !algSeen[s.Alg] {
			algSeen[s.Alg] = true
			algOrder = append(algOrder, s.Alg)
			algBusy[s.Alg] = map[int32]int64{}
		}
		layout(s, func(p metrics.Phase, at int64) {
			k := cellKey{s.Alg, int32(p)}
			ws := cells[k]
			if ws == nil {
				ws = map[int32]*workerAgg{}
				cells[k] = ws
			}
			w := ws[s.TID]
			if w == nil {
				w = &workerAgg{}
				ws[s.TID] = w
			}
			w.busyNs += s.Ns[p]
			w.tuples += s.Tuples[p]
			w.spans++
			if end := at + s.Ns[p]; end > w.endNs {
				w.endNs = end
			}
			algBusy[s.Alg][s.TID] += s.Ns[p]
		})
	}

	a := &Analysis{}
	keys := make([]cellKey, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].alg != keys[j].alg {
			return algName(keys[i].alg) < algName(keys[j].alg)
		}
		return keys[i].phase < keys[j].phase
	})

	for _, k := range keys {
		ws := cells[k]
		st := PhaseStat{Algorithm: algName(k.alg), Phase: metrics.Phase(k.phase), Workers: len(ws)}
		var busies, tuples []int64
		var maxEnd int64
		for _, w := range ws {
			st.Spans += w.spans
			st.TotalNs += w.busyNs
			if w.busyNs > st.MaxNs {
				st.MaxNs = w.busyNs
			}
			if w.endNs > maxEnd {
				maxEnd = w.endNs
			}
			busies = append(busies, w.busyNs)
			tuples = append(tuples, w.tuples)
		}
		st.MeanNs = st.TotalNs / int64(len(ws))
		if st.MeanNs > 0 {
			st.Imbalance = float64(st.MaxNs) / float64(st.MeanNs)
		} else if st.MaxNs > 0 {
			st.Imbalance = float64(len(ws))
		} else {
			st.Imbalance = 1
		}
		for _, w := range ws {
			st.BarrierStallNs += maxEnd - w.endNs
		}
		a.Phases = append(a.Phases, st)

		// Straggler detection needs at least two workers to compare.
		if len(ws) < 2 {
			continue
		}
		medBusy := median(busies)
		medTuples := median(tuples)
		tids := make([]int32, 0, len(ws))
		for tid := range ws {
			tids = append(tids, tid)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		for _, tid := range tids {
			w := ws[tid]
			if medBusy <= 0 || float64(w.busyNs) < StragglerFactor*float64(medBusy) {
				continue
			}
			s := Straggler{
				Algorithm: st.Algorithm,
				Phase:     st.Phase,
				TID:       tid,
				Ratio:     float64(w.busyNs) / float64(medBusy),
				Cause:     "slow",
			}
			if medTuples > 0 {
				s.TupleRatio = float64(w.tuples) / float64(medTuples)
				if s.TupleRatio >= skewFactor {
					s.Cause = "skew"
				}
			}
			a.Stragglers = append(a.Stragglers, s)
		}
	}
	sort.Slice(a.Stragglers, func(i, j int) bool { return a.Stragglers[i].Ratio > a.Stragglers[j].Ratio })

	for _, alg := range algOrder {
		sum := AlgSummary{Algorithm: algName(alg), CriticalTID: -1}
		tids := make([]int32, 0, len(algBusy[alg]))
		for tid := range algBusy[alg] {
			tids = append(tids, tid)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		for _, tid := range tids {
			busy := algBusy[alg][tid]
			sum.TotalNs += busy
			if busy > sum.CriticalNs {
				sum.CriticalNs = busy
				sum.CriticalTID = tid
			}
		}
		a.Algorithms = append(a.Algorithms, sum)
	}
	sort.Slice(a.Algorithms, func(i, j int) bool { return a.Algorithms[i].Algorithm < a.Algorithms[j].Algorithm })
	return a
}

// SpansOfChrome reconstructs a span snapshot from a parsed Chrome trace
// (the offline analysis path of `iawjinspect trace.json`): one fine span
// per event, its times rounded back to the nanoseconds they were written
// from. The returned resolver maps the rebuilt run indices back to names.
func SpansOfChrome(ct ChromeTrace) ([]Span, func(int32) string) {
	algIdx := map[string]int32{}
	var algs []string
	spans := make([]Span, 0, len(ct.TraceEvents))
	for _, ev := range ct.TraceEvents {
		idx, ok := algIdx[ev.Args.Algorithm]
		if !ok {
			idx = int32(len(algs))
			algIdx[ev.Args.Algorithm] = idx
			algs = append(algs, ev.Args.Algorithm)
		}
		p := phaseIndex(ev.Name)
		s := Span{TID: int32(ev.TID), Alg: idx, Phase: int32(p), StartNs: int64(math.Round(ev.Ts * 1e3))}
		s.Ns[p] = int64(math.Round(ev.Dur * 1e3))
		s.Tuples[p] = ev.Args.Tuples
		s.EndNs = s.StartNs + s.Ns[p]
		spans = append(spans, s)
	}
	return spans, func(i int32) string {
		if i < 0 || int(i) >= len(algs) {
			return "?"
		}
		return algs[i]
	}
}

// median returns the middle value of v (mean of the two middles for even
// lengths) without mutating the caller's slice.
func median(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// phaseIndex inverts metrics.Phase.String; unknown names map to the
// "others" phase so foreign traces still aggregate.
func phaseIndex(name string) metrics.Phase {
	for _, p := range metrics.Phases() {
		if p.String() == name {
			return p
		}
	}
	return metrics.PhaseOther
}

// WriteText renders the analysis as the human-readable report of
// `iawjinspect trace.json`.
func (a *Analysis) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-12s %8s %8s %12s %10s %14s\n",
		"algorithm", "phase", "workers", "spans", "busy_ms", "imbalance", "barrier_ms")
	for _, st := range a.Phases {
		fmt.Fprintf(w, "%-12s %-12s %8d %8d %12.3f %10.2f %14.3f\n",
			st.Algorithm, st.Phase.String(), st.Workers, st.Spans,
			float64(st.TotalNs)/1e6, st.Imbalance, float64(st.BarrierStallNs)/1e6)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %14s %14s %s\n", "algorithm", "critical_tid", "critical_ms", "share")
	for _, s := range a.Algorithms {
		share := 0.0
		if s.TotalNs > 0 {
			share = float64(s.CriticalNs) / float64(s.TotalNs)
		}
		fmt.Fprintf(w, "%-12s %14d %14.3f %.1f%%\n",
			s.Algorithm, s.CriticalTID, float64(s.CriticalNs)/1e6, share*100)
	}
	if len(a.Stragglers) == 0 {
		fmt.Fprintf(w, "\nno stragglers (threshold %.1fx median busy time)\n", StragglerFactor)
		return
	}
	fmt.Fprintf(w, "\n%-12s %-12s %6s %8s %12s %s\n", "algorithm", "phase", "tid", "ratio", "tuple_ratio", "cause")
	for _, s := range a.Stragglers {
		fmt.Fprintf(w, "%-12s %-12s %6d %7.2fx %11.2fx %s\n",
			s.Algorithm, s.Phase.String(), s.TID, s.Ratio, s.TupleRatio, s.Cause)
	}
}
