// Package metrics implements the measurement harness of the study: the
// three performance metrics of Section 4.1 (throughput, quantile worst-case
// latency, progressiveness), the six-phase execution-time breakdown of
// Section 5.3, and the memory-consumption timeline of Figure 19b.
//
// Every worker thread owns a ThreadMetrics with no shared state on the hot
// path; the Collector merges them when the run finishes. Matches are
// recorded into log-bucketed histograms, so runs producing hundreds of
// millions of matches need constant memory.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one of the six execution phases of the breakdown.
type Phase int

// The phases of Section 5.3: wait for input arrival, partition workloads
// among threads, build hash tables or sort tuples, merge sorted runs,
// probe/match, and everything else.
const (
	PhaseWait Phase = iota
	PhasePartition
	PhaseBuildSort
	PhaseMerge
	PhaseProbe
	PhaseOther
	numPhases
)

var phaseNames = [numPhases]string{"wait", "partition", "build/sort", "merge", "probe", "others"}

// String names the phase as in Figure 7.
func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return "?"
	}
	return phaseNames[p]
}

// Phases lists all phases in display order.
func Phases() []Phase {
	return []Phase{PhaseWait, PhasePartition, PhaseBuildSort, PhaseMerge, PhaseProbe, PhaseOther}
}

// ThreadMetrics accumulates one worker's timings and matches. It must only
// be used by its owning goroutine.
type ThreadMetrics struct {
	phaseNs   [numPhases]int64
	cur       Phase
	curActive bool
	curStart  time.Time

	matches     int64
	runs        int64     // runs the sink received the matches in
	latency     Histogram // latency in simulated ms
	progress    Histogram // match emission time in simulated ms
	lastMatchMs int64

	_ [8]int64 // pad to keep adjacent workers off one cache line
}

// Begin switches the worker into phase p, closing the previous phase.
func (t *ThreadMetrics) Begin(p Phase) {
	now := time.Now()
	if t.curActive {
		t.phaseNs[t.cur] += now.Sub(t.curStart).Nanoseconds()
	}
	t.cur = p
	t.curStart = now
	t.curActive = true
}

// End closes the current phase.
func (t *ThreadMetrics) End() {
	if t.curActive {
		t.phaseNs[t.cur] += time.Since(t.curStart).Nanoseconds()
		t.curActive = false
	}
}

// AddPhaseNs credits d nanoseconds to phase p directly; used when a worker
// measures a batch itself rather than via Begin/End.
func (t *ThreadMetrics) AddPhaseNs(p Phase, d int64) { t.phaseNs[p] += d }

// Matches records n join matches generated at simulated time nowMs whose
// last corresponding input arrived at lastInputMs. Latency follows the
// paper: emission time minus the larger input arrival timestamp. This is
// the per-match definition; the sink books whole runs through Latencies
// and Emitted, which must add up to the same histograms.
func (t *ThreadMetrics) Matches(n int64, nowMs, lastInputMs int64) {
	t.latency.Record(nowMs-lastInputMs, n)
	t.Emitted(n, n, nowMs)
}

// Latencies records the latencies of n matches that fall in histogram
// bucket idx (Bucket), maxLat being the largest among them; a negative
// latency — a match emitted before its input was due — is in bucket 0.
func (t *ThreadMetrics) Latencies(idx int, n, maxLat int64) { t.latency.AddTo(idx, n, maxLat) }

// Emitted counts n matches generated at simulated time nowMs towards the
// match total, the progressiveness curve and the time of the last match.
// runs is how many runs the sink received them in (Result.SinkRuns): n when
// every match arrived on its own.
func (t *ThreadMetrics) Emitted(n, runs, nowMs int64) {
	if n <= 0 {
		return
	}
	t.matches += n
	t.runs += runs
	t.progress.Record(nowMs, n)
	if nowMs > t.lastMatchMs {
		t.lastMatchMs = nowMs
	}
}

// Collector owns the per-thread metrics of one run plus run-wide state.
type Collector struct {
	threads []ThreadMetrics

	memCur  atomic.Int64
	memPeak atomic.Int64

	// memMu serializes the sampler; pad it off the line of the atomics
	// the worker threads hammer.
	_          [24]byte
	memMu      sync.Mutex
	memSamples []MemSample
}

// MemSample is one point of the memory-over-time curve (Figure 19b).
type MemSample struct {
	Ms    int64
	Bytes int64
}

// NewCollector prepares metrics for n worker threads.
func NewCollector(n int) *Collector {
	if n < 1 {
		n = 1
	}
	return &Collector{threads: make([]ThreadMetrics, n)}
}

// Reset returns the collector to the state NewCollector left it in, in
// place: the window pool hands a finished run's collector to the next run
// of the same thread count. Call it only once the run's workers have
// quiesced; a Result snapshotted earlier shares no memory with the
// collector and is unaffected.
func (c *Collector) Reset() {
	clear(c.threads)
	c.memCur.Store(0)
	c.memPeak.Store(0)
	c.memMu.Lock()
	c.memSamples = c.memSamples[:0]
	c.memMu.Unlock()
}

// T returns the metrics handle of worker tid.
func (c *Collector) T(tid int) *ThreadMetrics { return &c.threads[tid] }

// Threads returns the number of worker slots.
func (c *Collector) Threads() int { return len(c.threads) }

// MemAdd adjusts the logical memory footprint by delta bytes and keeps the
// peak. Safe for concurrent use.
func (c *Collector) MemAdd(delta int64) {
	v := c.memCur.Add(delta)
	for {
		p := c.memPeak.Load()
		if v <= p || c.memPeak.CompareAndSwap(p, v) {
			return
		}
	}
}

// MemSampleNow appends a (time, bytes) sample for the consumption curve.
func (c *Collector) MemSampleNow(nowMs int64) {
	b := c.memCur.Load()
	c.memMu.Lock()
	c.memSamples = append(c.memSamples, MemSample{Ms: nowMs, Bytes: b})
	c.memMu.Unlock()
}

// Result is the merged outcome of one experiment run.
type Result struct {
	Algorithm string
	Threads   int
	Inputs    int64
	Matches   int64
	// SinkRuns is how many runs — one tuple of one input with the tuples of
	// the other that match it — the matches reached the sink in:
	// Matches/SinkRuns is what one sink call amortizes over.
	SinkRuns int64

	// WindowID / WindowStartMs / WindowEndMs identify the source window
	// when the run is one window of a windowed sweep (stream.go stamps
	// them); all zero for single-window joins. The journal's window records
	// carry them downstream.
	WindowID      int
	WindowStartMs int64
	WindowEndMs   int64

	// LastMatchMs is the simulated timestamp of the final match; the
	// paper's throughput definition divides total inputs by it.
	LastMatchMs int64
	// ThroughputTPM is inputs per simulated millisecond.
	ThroughputTPM float64
	// LatencyP95Ms is the 95th-percentile worst-case processing latency.
	LatencyP95Ms int64
	// LatencyP50Ms / LatencyP99Ms / LatencyMaxMs complete the latency
	// picture.
	LatencyP50Ms int64
	LatencyP99Ms int64
	LatencyMaxMs int64
	// Progress is the cumulative-percent-of-matches curve.
	Progress []CumulativePoint
	// PhaseNs sums each phase's time across threads.
	PhaseNs [6]int64
	// WallNs is the end-to-end run time in real nanoseconds.
	WallNs int64
	// CPUUtil is busy (non-wait) thread time over threads × wall time.
	CPUUtil float64
	// MemPeakBytes and MemCurve describe logical memory consumption.
	MemPeakBytes int64
	MemCurve     []MemSample
	// Pool is the window-state pool's traffic during the run — which
	// kinds were served from a freelist and which had to allocate — and
	// the bytes its freelists retained when the run ended; all zero
	// without a pool. Runs sharing a pool concurrently see each other's
	// traffic.
	Pool PoolStats
	// Output is the output path's traffic during the run, in result
	// batches: delivered, parked for another worker to deliver, the peak
	// backlog and the flushes that waited at its bound; all zero when the
	// run only counted. Runs sharing a consumer (the windows of one
	// JoinWindowedParallel call) see each other's traffic.
	Output OutputStats
}

// Snapshot merges all thread metrics into a Result. inputs is |R|+|S|.
func (c *Collector) Snapshot(algorithm string, inputs int64, wallNs int64) Result {
	var lat, prog Histogram
	res := Result{
		Algorithm: algorithm,
		Threads:   len(c.threads),
		Inputs:    inputs,
		WallNs:    wallNs,
	}
	var busy int64
	for i := range c.threads {
		t := &c.threads[i]
		t.End()
		res.Matches += t.matches
		res.SinkRuns += t.runs
		if t.lastMatchMs > res.LastMatchMs {
			res.LastMatchMs = t.lastMatchMs
		}
		lat.Merge(&t.latency)
		prog.Merge(&t.progress)
		for p := 0; p < int(numPhases); p++ {
			res.PhaseNs[p] += t.phaseNs[p]
			if Phase(p) != PhaseWait {
				busy += t.phaseNs[p]
			}
		}
	}
	if res.LastMatchMs > 0 {
		res.ThroughputTPM = float64(inputs) / float64(res.LastMatchMs)
	} else if res.Matches > 0 {
		// All matches landed within the first millisecond.
		res.ThroughputTPM = float64(inputs)
	}
	res.LatencyP95Ms = lat.Quantile(0.95)
	res.LatencyP50Ms = lat.Quantile(0.50)
	res.LatencyP99Ms = lat.Quantile(0.99)
	res.LatencyMaxMs = lat.Max()
	res.Progress = prog.CDF()
	if wallNs > 0 && len(c.threads) > 0 {
		res.CPUUtil = float64(busy) / (float64(wallNs) * float64(len(c.threads)))
		if res.CPUUtil > 1 {
			res.CPUUtil = 1
		}
	}
	res.MemPeakBytes = c.memPeak.Load()
	c.memMu.Lock()
	res.MemCurve = append([]MemSample(nil), c.memSamples...)
	c.memMu.Unlock()
	return res
}

// TimeToFrac returns the simulated time by which frac of all matches had
// been delivered (e.g. 0.5 for the "first 50% of matches" comparisons).
func (r *Result) TimeToFrac(frac float64) int64 {
	for _, p := range r.Progress {
		if p.Frac >= frac {
			return p.V
		}
	}
	if n := len(r.Progress); n > 0 {
		return r.Progress[n-1].V
	}
	return 0
}
