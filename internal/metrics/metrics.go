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
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/clock"
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

// ThreadMetrics is one worker's record: its phase times, matches and
// latencies. It must only be used by its owning goroutine. A phase change
// reads the clock once and books the stretch it closes to phaseNs and, in
// a traced run, to the worker's span ring; Begin, AddTuples and End are
// the only calls that record phases.
type ThreadMetrics struct {
	phaseNs [numPhases]int64
	start   int64 // phase clock when the open stretch began
	tuples  int64 // tuples the open stretch covered
	ring    *Ring // nil unless the run is traced
	cur     Phase
	open    bool

	matches     int64
	runs        int64     // runs the sink received the matches in
	latency     Histogram // latency in simulated ms
	progress    Histogram // match emission time in simulated ms
	lastMatchMs int64

	_ [14]int64 // pad to a multiple of 128 bytes: adjacent workers in Collector.threads share no cache line
}

// epoch anchors the phase clock.
var epoch = clock.StartStopwatch()

// NowNs reads the phase clock: monotonic nanoseconds since the process
// started, the time base of Span. A trace recorder reads it once, for its
// epoch; every other read is a phase change's.
func NowNs() int64 { return epoch.ElapsedNs() }

// Begin switches the worker into phase p, closing the open stretch.
func (t *ThreadMetrics) Begin(p Phase) {
	now := NowNs()
	if t.open {
		t.book(now)
	}
	t.cur, t.start, t.tuples, t.open = p, now, 0, true
}

// AddTuples attributes n tuples to the open stretch.
func (t *ThreadMetrics) AddTuples(n int64) { t.tuples += n }

// End closes the open stretch, if any. Until the next Begin the worker is
// in no phase: the eager joins leave the time between their measured
// stretches unbooked.
func (t *ThreadMetrics) End() {
	if t.open {
		t.book(NowNs())
		t.open = false
	}
}

// book adds the open stretch, ending at now, to its phase and, when
// traced, hands the same stretch to the ring.
func (t *ThreadMetrics) book(now int64) {
	t.phaseNs[t.cur] += now - t.start
	if t.ring != nil {
		t.ring.add(t.cur, t.start, now, t.tuples)
	}
}

// Trace hands the worker's stretches from now on to ring r as spans of
// run run; a nil r stops tracing. Call it before the run starts.
func (t *ThreadMetrics) Trace(r *Ring, run int32) {
	t.ring = r
	if r != nil {
		r.run, r.left = run, 0
	}
}

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

// Reset returns the collector to the state NewCollector(n) leaves it in,
// in place: a call's run frame (internal/core) keeps its collector for
// the next run, whatever that run's worker count, and regrows its worker
// slots only past the most it ever held. Call it only once the last run's
// workers have quiesced; a Result snapshotted earlier shares no memory
// with the collector and is unaffected.
func (c *Collector) Reset(n int) {
	n = max(n, 1)
	c.threads = slices.Grow(c.threads[:0], n)[:n]
	clear(c.threads)
	c.memCur.Store(0)
	c.memPeak.Store(0)
	c.memMu.Lock()
	c.memSamples = c.memSamples[:0]
	c.memMu.Unlock()
}

// MemBytes is what the collector's worker slots hold, the most workers
// it ever served.
func (c *Collector) MemBytes() int64 {
	return int64(cap(c.threads)) * int64(unsafe.Sizeof(ThreadMetrics{}))
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
	// Progress is the cumulative-percent-of-matches curve sampled at the
	// fractions k/32, k = 1..32 (Histogram.CDF); all zero when nothing
	// matched. A fixed array, so that a Result's size and allocations do
	// not depend on how fast the join ran: a faster one lands its matches
	// in earlier, finer histogram buckets.
	Progress [progressPoints]CumulativePoint
	// PhaseNs sums each phase's time across threads.
	PhaseNs [6]int64
	// WallNs is the end-to-end run time in real nanoseconds.
	WallNs int64
	// CPUUtil is busy (non-wait) thread time over threads × wall time.
	CPUUtil float64
	// MemPeakBytes and MemCurve describe logical memory consumption:
	// MemCurve's first MemPoints entries are the run's samples at every
	// (n/4+1)-th of its n, in time order. A fixed array, like Progress,
	// so that a Result allocates nothing however long the run sampled.
	MemPeakBytes int64
	MemCurve     [memPoints]MemSample
	MemPoints    int
	// Pool is the window-state pool's traffic during the run — which
	// kinds were served from a freelist and which had to allocate — and
	// the bytes its freelists retained when the run ended. Runs sharing
	// a pool concurrently see each other's traffic.
	Pool PoolStats
	// Output is the output path's traffic during the run, in result
	// batches: delivered, parked for another worker to deliver, the peak
	// backlog and the flushes that waited at its bound; all zero when the
	// run only counted. Runs sharing a consumer (the windows of one
	// JoinWindowedParallel call) see each other's traffic.
	Output OutputStats
}

// progressPoints is how many points Result.Progress samples the match
// curve at; ¼, ½, ¾ and 1 are among its fractions.
const progressPoints = 32

// memPoints bounds Result.MemCurve: a stride of n/4+1 picks at most four
// of n samples.
const memPoints = 4

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
	prog.CDF(res.Progress[:])
	if wallNs > 0 && len(c.threads) > 0 {
		res.CPUUtil = float64(busy) / (float64(wallNs) * float64(len(c.threads)))
		if res.CPUUtil > 1 {
			res.CPUUtil = 1
		}
	}
	res.MemPeakBytes = c.memPeak.Load()
	c.memMu.Lock()
	step := len(c.memSamples)/memPoints + 1
	for i := 0; i < len(c.memSamples); i += step {
		res.MemCurve[res.MemPoints] = c.memSamples[i]
		res.MemPoints++
	}
	c.memMu.Unlock()
	return res
}

// TimeToFrac returns the simulated time by which frac of all matches had
// been delivered (e.g. 0.5 for the "first 50% of matches" comparisons): at
// a fraction k/32 the progress histogram's quantile, elsewhere that of the
// next such fraction up.
func (r *Result) TimeToFrac(frac float64) int64 {
	for _, p := range r.Progress {
		if p.Frac >= frac {
			return p.V
		}
	}
	return r.Progress[len(r.Progress)-1].V
}
