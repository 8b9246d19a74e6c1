package trace

import (
	"math"
	rtm "runtime/metrics"
	"sync"
	"time"

	"repro/internal/clock"
)

// RuntimeSample is one fixed-interval observation of the Go runtime while
// a run is in flight: the process-level counters a performance model (or a
// human reading a regression report) needs to separate join cost from
// runtime interference — GC pressure, heap growth, goroutine explosions,
// scheduler queueing.
type RuntimeSample struct {
	// AtNs is nanoseconds since the sampler started.
	AtNs int64 `json:"at_ns"`
	// HeapLiveBytes is the live-object heap footprint.
	HeapLiveBytes int64 `json:"heap_live_bytes"`
	// Goroutines is the live goroutine count.
	Goroutines int64 `json:"goroutines"`
	// GCCycles counts completed GC cycles since process start.
	GCCycles int64 `json:"gc_cycles"`
	// GCPauseNsTotal approximates total stop-the-world GC pause time
	// since process start (histogram bucket midpoints).
	GCPauseNsTotal int64 `json:"gc_pause_ns_total"`
	// SchedLatP99Ns is the 99th-percentile goroutine scheduling latency
	// since process start.
	SchedLatP99Ns int64 `json:"sched_latency_p99_ns"`
}

// Runtime metric names the sampler reads. Names absent from the running
// runtime (older Go) are skipped at construction, so the sampler degrades
// to the supported subset instead of failing.
const (
	rtmHeapLive   = "/memory/classes/heap/objects:bytes"
	rtmGoroutines = "/sched/goroutines:goroutines"
	rtmGCCycles   = "/gc/cycles/total:gc-cycles"
	rtmGCPauses   = "/sched/pauses/total/gc:seconds"
	rtmSchedLat   = "/sched/latencies:seconds"
)

// DefaultSampleCap bounds the sample ring when the caller passes a
// non-positive capacity: at the default 100ms interval, 4096 samples cover
// almost seven minutes.
const DefaultSampleCap = 1 << 12

// Sampler records RuntimeSamples at a fixed interval into a preallocated
// ring. It follows the trace cost model: a nil Sampler is a valid,
// fully inert handle (every method is nil-receiver safe and the disabled
// path performs zero allocations), and an enabled sampler allocates only
// at construction — recording overwrites the oldest ring slot.
//
// The read surface (SampleNow, Latest, Samples) takes the sampler mutex
// and so does not belong inside //iawj:hotpath functions; workers never
// need it — the sampling goroutine and the journal are the only callers.
type Sampler struct {
	interval time.Duration
	sw       clock.Stopwatch

	mu      sync.Mutex
	scratch []rtm.Sample // reused by every runtime/metrics read
	ring    []RuntimeSample
	n       int64 // total samples recorded; ring index is n % cap
	latest  RuntimeSample
	have    bool

	started bool
	stop    chan struct{}
	done    chan struct{}
}

// NewSampler prepares a sampler that, once started, records one
// RuntimeSample every interval (non-positive selects 100ms) into a ring of
// cap slots (non-positive selects DefaultSampleCap). All allocation
// happens here.
func NewSampler(interval time.Duration, cap int) *Sampler {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	if cap <= 0 {
		cap = DefaultSampleCap
	}
	supported := map[string]bool{}
	for _, d := range rtm.All() {
		supported[d.Name] = true
	}
	var scratch []rtm.Sample
	for _, name := range []string{rtmHeapLive, rtmGoroutines, rtmGCCycles, rtmGCPauses, rtmSchedLat} {
		if supported[name] {
			scratch = append(scratch, rtm.Sample{Name: name})
		}
	}
	s := &Sampler{
		interval: interval,
		sw:       clock.StartStopwatch(),
		scratch:  scratch,
		ring:     make([]RuntimeSample, cap),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	// Prime the histogram buffers: runtime/metrics reuses the
	// *Float64Histogram stored in a Sample across reads, so the first read
	// takes the allocations and steady-state sampling stays quiet.
	rtm.Read(s.scratch)
	return s
}

// Start launches the sampling goroutine. Safe to call once per sampler;
// the goroutine joins in Stop.
func (s *Sampler) Start() {
	if s == nil || s.started {
		return
	}
	s.started = true
	//lint:allow goroutineleak the sampling goroutine joins in Stop via the done channel
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.SampleNow()
			}
		}
	}()
}

// Stop halts the sampling goroutine and waits for it to exit, then takes
// one final sample so short runs always record at least one. Idempotent.
func (s *Sampler) Stop() {
	if s == nil || !s.started {
		return
	}
	select {
	case <-s.stop:
		// Already stopped.
	default:
		close(s.stop)
		<-s.done
		s.SampleNow()
	}
}

// SampleNow reads the runtime metrics and records one sample immediately,
// returning it. Nil-safe (returns the zero sample).
func (s *Sampler) SampleNow() RuntimeSample {
	if s == nil {
		return RuntimeSample{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rtm.Read(s.scratch)
	out := RuntimeSample{AtNs: s.sw.ElapsedNs()}
	for i := range s.scratch {
		smp := &s.scratch[i]
		switch smp.Name {
		case rtmHeapLive:
			out.HeapLiveBytes = int64(smp.Value.Uint64())
		case rtmGoroutines:
			out.Goroutines = int64(smp.Value.Uint64())
		case rtmGCCycles:
			out.GCCycles = int64(smp.Value.Uint64())
		case rtmGCPauses:
			if h := smp.Value.Float64Histogram(); h != nil {
				out.GCPauseNsTotal = histTotalNs(h)
			}
		case rtmSchedLat:
			if h := smp.Value.Float64Histogram(); h != nil {
				out.SchedLatP99Ns = histQuantileNs(h, 0.99)
			}
		}
	}
	s.ring[s.n%int64(len(s.ring))] = out
	s.n++
	s.latest = out
	s.have = true
	return out
}

// Latest returns the most recent sample; ok is false when no sample has
// been recorded (or the sampler is nil — the disabled path, which
// performs zero allocations).
func (s *Sampler) Latest() (RuntimeSample, bool) {
	if s == nil {
		return RuntimeSample{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest, s.have
}

// Count returns the number of samples recorded so far (including any that
// overwrote older ring slots).
func (s *Sampler) Count() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Samples returns a copy of the retained samples in recording order.
func (s *Sampler) Samples() []RuntimeSample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cap64 := int64(len(s.ring))
	n := s.n
	if n == 0 {
		return nil
	}
	out := make([]RuntimeSample, 0, min64(n, cap64))
	start := int64(0)
	if n > cap64 {
		start = n - cap64
	}
	for i := start; i < n; i++ {
		out = append(out, s.ring[i%cap64])
	}
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// histTotalNs approximates the histogram's value sum in nanoseconds using
// bucket midpoints (runtime/metrics buckets are in seconds).
func histTotalNs(h *rtm.Float64Histogram) int64 {
	var total float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := bucketMid(lo, hi)
		total += float64(c) * mid
	}
	return int64(total * 1e9)
}

// histQuantileNs returns the q-quantile of the histogram in nanoseconds
// (lower bucket bound, matching the conservative HDR convention of
// internal/metrics).
func histQuantileNs(h *rtm.Float64Histogram, q float64) int64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			return int64(bucketMid(h.Buckets[i], h.Buckets[i+1]) * 1e9)
		}
	}
	return int64(bucketMid(h.Buckets[len(h.Buckets)-2], h.Buckets[len(h.Buckets)-1]) * 1e9)
}

// bucketMid picks a representative value for a histogram bucket, handling
// the +-Inf edge buckets runtime/metrics uses.
func bucketMid(lo, hi float64) float64 {
	switch {
	case math.IsInf(lo, 0) && math.IsInf(hi, 0):
		return 0
	case math.IsInf(lo, 0):
		return hi
	case math.IsInf(hi, 0):
		return lo
	default:
		return (lo + hi) / 2
	}
}
