package main

import (
	"slices"
	"sync/atomic"

	iawj "repro"
)

// latRecorder is the Emit target of a latency sample. It keeps every
// stride-th result, chosen by the S tuple's position in its stream and so
// the same results in every run, with when it was emitted; choosing by
// input costs a result that is not kept one branch and no shared write.
type latRecorder struct {
	startNs int64 // when the job's inputs began to arrive
	mask    int32
	at      []int64  // emission time since startNs
	ts      []int64  // JoinResult.TS: when the later input was due, simulated ms
	_       [64]byte // keeps the counter both workers bump off the line of what they read
	n       atomic.Int64
}

const latCap = 1 << 18

// newLatRecorder picks the stride that would about fill the buffer if every
// S tuple had as many matches as the next; latencySample widens it when
// skewed keys make the kept tuples yield more.
func newLatRecorder(matches int64) *latRecorder {
	stride := int64(1)
	for matches/stride > latCap {
		stride *= 2
	}
	return &latRecorder{mask: int32(stride - 1), at: make([]int64, latCap), ts: make([]int64, latCap)}
}

func (l *latRecorder) emit(jr iawj.JoinResult) {
	if jr.PayloadS&l.mask != 0 {
		return
	}
	if i := l.n.Add(1) - 1; i < int64(len(l.at)) {
		l.at[i] = proc.ElapsedNs() - l.startNs
		l.ts[i] = jr.TS
	}
}

// latencies is what one latency sample yields, in milliseconds.
type latencies struct {
	p50, p95, p99 float64
	half          float64 // time from job start until half the kept results were out
}

// summarize turns the recorded emissions into latencies: each result is
// timed from when the later of its two inputs was due, so a stall counts
// against every result behind it.
func (l *latRecorder) summarize(paceNs float64) latencies {
	n := int(l.n.Load())
	at, lat := slices.Clone(l.at[:n]), make([]int64, n)
	for i := range lat {
		lat[i] = at[i] - int64(float64(l.ts[i])*paceNs)
	}
	slices.Sort(at)
	slices.Sort(lat)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return latencies{ms(rank(lat, 0.50)), ms(rank(lat, 0.95)), ms(rank(lat, 0.99)), ms(rank(at, 0.50))}
}

// latencySample runs the job on col with the latency recorder as Emit. A
// job that kept more results than the buffer holds dropped its latest, and
// slowest, ones: it yields no sample, the stride doubles and the job runs
// again. What is kept depends on the input alone, so that happens in the
// first sample of a workload or never.
func (b *bench) latencySample(col string) (latencies, bool) {
	if b.lat == nil {
		b.lat = newLatRecorder(b.w.ref.Full.Count)
	}
	for {
		_, _, ok := b.timed(col, func() (outcome, error) {
			b.lat.n.Store(0)
			b.lat.startNs = proc.ElapsedNs()
			return b.w.run(col, b.lat.emit)
		})
		if !ok {
			return latencies{}, false
		}
		if b.lat.n.Load() <= int64(len(b.lat.at)) {
			return b.lat.summarize(b.w.paceNs), true
		}
		b.lat.mask = b.lat.mask<<1 | 1
	}
}
