package ingest

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/tuple"
)

// This file is the open-loop load driver: arrivals are sent at their
// scheduled deadlines and are never gated on the consumer. A closed-loop
// harness (Replay, or ClosedLoop below) only offers the next tuple after
// the consumer finished the previous one, so a slow join silently slows
// the offered load and the recorded latencies hide the queueing the real
// arrival rate would have caused — the coordinated-omission trap. OpenLoop
// keeps the offered-load schedule consumer-independent and reports the
// lateness instead of absorbing it.

// OpenEvent is one scheduled arrival of a load plan: which tuple, which
// stream, which SLO class, due at which simulated millisecond.
// internal/workloadspec compiles specs into deadline-ordered plans.
type OpenEvent struct {
	// DueMs is the offered-load deadline in simulated milliseconds.
	DueMs int64
	// Stream is TagR or TagS.
	Stream byte
	// Class indexes the plan's SLO class table (workloadspec.Compiled).
	Class uint8
	// Tuple is the payload-bearing tuple; its TS equals DueMs.
	Tuple tuple.Tuple
}

// LoadResult records what the driver observed: per-event real-time stamps
// of when the event was offered (producer side) and when the consumer
// picked it up. All stamps are nanoseconds since the run started; divide
// by NsPerMs for simulated milliseconds.
type LoadResult struct {
	// OfferedNs is when each event was placed on the wire, in plan order.
	// Open-loop offered stamps track the deadlines regardless of consumer
	// speed; closed-loop offered stamps slip behind a slow consumer.
	OfferedNs []int64
	// PickupNs is when the consumer accepted each event.
	PickupNs []int64
	// NsPerMs is the real-nanoseconds-per-simulated-millisecond scale the
	// run used.
	NsPerMs float64
	// Closed records whether the run was the closed-loop variant.
	Closed bool
}

// LatenessMs returns event i's consumer lateness in whole simulated
// milliseconds: pickup time minus deadline, clamped at zero. This is the
// metric that exposes overload — in an open-loop run it grows without
// bound when the consumer cannot keep up.
func (r *LoadResult) LatenessMs(events []OpenEvent, i int) int64 {
	late := r.PickupNs[i] - int64(float64(events[i].DueMs)*r.NsPerMs)
	if late < 0 {
		return 0
	}
	return int64(float64(late) / r.NsPerMs)
}

// OpenLoop replays the deadline-ordered plan open-loop: a producer paces
// events onto an unbounded queue at their deadlines while the caller's
// goroutine drains the queue into sink. The producer never blocks on the
// consumer (the queue holds the whole plan if it must), so the offered
// schedule is consumer-independent; a slow sink shows up as pickup
// lateness, not as a slower arrival rate. nsPerMs scales simulated
// milliseconds to real nanoseconds (1e6 = real time). Events must be in
// non-decreasing DueMs order.
func OpenLoop(events []OpenEvent, nsPerMs float64, sink func(OpenEvent)) (LoadResult, error) {
	if err := checkOrdered(events); err != nil {
		return LoadResult{}, err
	}
	res := LoadResult{
		OfferedNs: make([]int64, len(events)),
		PickupNs:  make([]int64, len(events)),
		NsPerMs:   nsPerMs,
	}
	if len(events) == 0 {
		return res, nil
	}
	// Full-capacity buffer: the send below can never block, which is the
	// open-loop guarantee. The plan is already materialized in memory, so
	// the queue adds one small record per event, not a second copy of the
	// tuples; the offered stamp travels with the index so the producer
	// goroutine shares no result storage with the consumer.
	type offered struct {
		i  int
		ns int64
	}
	queue := make(chan offered, len(events))
	sw := clock.StartStopwatch()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pacer := clock.NewPacer(nsPerMs)
		for i := range events {
			pacer.Pace(events[i].DueMs)
			queue <- offered{i: i, ns: sw.ElapsedNs()}
		}
		close(queue)
	}()
	for o := range queue {
		res.OfferedNs[o.i] = o.ns
		res.PickupNs[o.i] = sw.ElapsedNs()
		if sink != nil {
			sink(events[o.i])
		}
	}
	wg.Wait()
	return res, nil
}

// ClosedLoop replays the same plan closed-loop, the methodological foil:
// each event is offered only after the consumer finished the previous one,
// so a slow sink stretches the offered schedule itself. Comparing the two
// on one plan quantifies the coordinated-omission gap (WORKLOADS.md).
func ClosedLoop(events []OpenEvent, nsPerMs float64, sink func(OpenEvent)) (LoadResult, error) {
	if err := checkOrdered(events); err != nil {
		return LoadResult{}, err
	}
	res := LoadResult{
		OfferedNs: make([]int64, len(events)),
		PickupNs:  make([]int64, len(events)),
		NsPerMs:   nsPerMs,
		Closed:    true,
	}
	sw := clock.StartStopwatch()
	pacer := clock.NewPacer(nsPerMs)
	for i := range events {
		pacer.Pace(events[i].DueMs)
		now := sw.ElapsedNs()
		res.OfferedNs[i] = now
		res.PickupNs[i] = now
		if sink != nil {
			sink(events[i])
		}
	}
	return res, nil
}

func checkOrdered(events []OpenEvent) error {
	for i := 1; i < len(events); i++ {
		if events[i].DueMs < events[i-1].DueMs {
			return fmt.Errorf("ingest: open-loop plan not deadline-ordered at %d (%d after %d)", i, events[i].DueMs, events[i-1].DueMs)
		}
	}
	return nil
}

// ClassReport is the per-SLO-class outcome of one load run.
type ClassReport struct {
	Class string `json:"class"`
	// Offered counts the scheduled arrivals of the class; OfferedRate is
	// tuples per simulated millisecond over the plan span.
	Offered     int     `json:"offered"`
	OfferedRate float64 `json:"offered_tuples_per_ms"`
	// Delivered counts arrivals the consumer accepted (all of them — the
	// open-loop driver drops nothing; it reports lateness instead).
	Delivered int `json:"delivered"`
	// Lateness quantiles in simulated ms: pickup time minus deadline.
	LatenessP50Ms int64 `json:"lateness_p50_ms"`
	LatenessP95Ms int64 `json:"lateness_p95_ms"`
	LatenessP99Ms int64 `json:"lateness_p99_ms"`
	LatenessMaxMs int64 `json:"lateness_max_ms"`
}

// ClassReports aggregates a load run per SLO class. classes maps class
// indexes to names (workloadspec.Compiled.Classes); spanMs is the plan's
// simulated duration for the rate denominator.
func ClassReports(events []OpenEvent, res LoadResult, classes []string, spanMs int64) []ClassReport {
	if spanMs <= 0 {
		spanMs = 1
	}
	hists := make([]metrics.Histogram, len(classes))
	offered := make([]int, len(classes))
	for i := range events {
		c := int(events[i].Class)
		if c >= len(classes) {
			continue
		}
		offered[c]++
		hists[c].Record(res.LatenessMs(events, i), 1)
	}
	out := make([]ClassReport, 0, len(classes))
	for c, name := range classes {
		out = append(out, ClassReport{
			Class:         name,
			Offered:       offered[c],
			OfferedRate:   float64(offered[c]) / float64(spanMs),
			Delivered:     int(hists[c].Total()),
			LatenessP50Ms: hists[c].Quantile(0.50),
			LatenessP95Ms: hists[c].Quantile(0.95),
			LatenessP99Ms: hists[c].Quantile(0.99),
			LatenessMaxMs: hists[c].Max(),
		})
	}
	return out
}

// ClassResult flattens a class report into a metrics.Result so the
// existing journal writer records it: per-class entries journal as run
// records under the "openloop/<class>" algorithm key, which is what lets
// cmd/iawjinspect diff per-class throughput and lateness quantiles between
// two load runs.
func ClassResult(r ClassReport) metrics.Result {
	return metrics.Result{
		Algorithm:     "openloop/" + r.Class,
		Inputs:        int64(r.Offered),
		Matches:       int64(r.Delivered),
		ThroughputTPM: r.OfferedRate,
		LatencyP50Ms:  r.LatenessP50Ms,
		LatencyP95Ms:  r.LatenessP95Ms,
		LatencyP99Ms:  r.LatenessP99Ms,
		LatencyMaxMs:  r.LatenessMaxMs,
	}
}

// CollectStreams splits delivered events back into time-ordered R and S
// relations carrying their offered-load timestamps, ready for the join
// drivers. The offered timestamps — not the (possibly late) delivery
// instants — are the ground truth of what load was applied.
func CollectStreams(events []OpenEvent) (r, s tuple.Relation) {
	for i := range events {
		switch events[i].Stream {
		case TagR:
			r = append(r, events[i].Tuple)
		case TagS:
			s = append(s, events[i].Tuple)
		}
	}
	// The plan is deadline-ordered, so the split relations already are;
	// sort defensively for externally built plans.
	if !r.SortedByTS() {
		sort.SliceStable(r, func(i, k int) bool { return r[i].TS < r[k].TS })
	}
	if !s.SortedByTS() {
		sort.SliceStable(s, func(i, k int) bool { return s[i].TS < s[k].TS })
	}
	return r, s
}
