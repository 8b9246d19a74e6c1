package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	rtm "runtime/metrics"
	"strings"
	"sync"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// JournalEntry is one machine-readable journal line. Three kinds share the
// schema: "header" records the environment the journal was produced on,
// "run" summarizes one whole join run (the three paper metrics plus the
// phase breakdown), and "window" summarizes one window of a windowed sweep
// (same metrics, plus the window identity). The schema field versions the
// format so downstream tooling can evolve.
type JournalEntry struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"`

	// Env is set on header entries only.
	Env *EnvInfo `json:"env,omitempty"`

	// Window identifies the source window on window entries.
	Window *WindowInfo `json:"window,omitempty"`

	Algorithm string `json:"algorithm,omitempty"`
	Threads   int    `json:"threads,omitempty"`
	Inputs    int64  `json:"inputs,omitempty"`
	Matches   int64  `json:"matches,omitempty"`
	// SinkRuns is metrics.Result.SinkRuns: matches/sink_runs is the
	// duplication the sink's run form amortized over.
	SinkRuns      int64            `json:"sink_runs,omitempty"`
	ThroughputTPM float64          `json:"throughput_tuples_per_ms,omitempty"`
	LatencyP50Ms  int64            `json:"latency_p50_ms,omitempty"`
	LatencyP95Ms  int64            `json:"latency_p95_ms,omitempty"`
	LatencyP99Ms  int64            `json:"latency_p99_ms,omitempty"`
	LatencyMaxMs  int64            `json:"latency_max_ms,omitempty"`
	WallNs        int64            `json:"wall_ns,omitempty"`
	CPUUtil       float64          `json:"cpu_utilization,omitempty"`
	MemPeakBytes  int64            `json:"mem_peak_bytes,omitempty"`
	PhaseNs       map[string]int64 `json:"phase_ns,omitempty"`
	Progress      []ProgressPoint  `json:"progress,omitempty"`

	// PoolHits / PoolMisses count the run's window-pool acquires served
	// from a freelist / by allocating, per pooled kind (kinds at zero are
	// left out); PoolRetainedBytes is what the freelists held when the
	// run ended. All absent for a result with no pool traffic.
	PoolHits          map[string]int64 `json:"pool_hits,omitempty"`
	PoolMisses        map[string]int64 `json:"pool_misses,omitempty"`
	PoolRetainedBytes int64            `json:"pool_retained_bytes,omitempty"`

	// The output path's traffic during the run, in result batches
	// (metrics.OutputStats): handed to the Emit consumer, left for
	// another worker to hand over, the most ever waiting at once, and
	// the flushes that had to wait at the backlog's bound. All absent
	// for a count-only run.
	OutputDelivered   int64 `json:"output_batches_delivered,omitempty"`
	OutputParked      int64 `json:"output_batches_parked,omitempty"`
	OutputPeakBacklog int64 `json:"output_peak_backlog,omitempty"`
	OutputWaits       int64 `json:"output_waits,omitempty"`

	// Runtime is the Go runtime read when the record was written; set on
	// every run and window record.
	Runtime *RuntimeSample `json:"runtime,omitempty"`
}

// WindowInfo identifies one window of a windowed sweep.
type WindowInfo struct {
	ID      int   `json:"id"`
	StartMs int64 `json:"start_ms"`
	EndMs   int64 `json:"end_ms"`
}

// EnvInfo records the environment a journal was produced on, so journal
// consumers (iawjinspect, bench-gate) can flag cross-machine comparisons
// instead of reporting false regressions.
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentEnv captures the running process's environment metadata.
func CurrentEnv() EnvInfo {
	return EnvInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// ProgressPoint is one sample of the progressiveness curve: Frac of all
// matches had been delivered by simulated time Ms.
type ProgressPoint struct {
	Ms   int64   `json:"ms"`
	Frac float64 `json:"frac"`
}

// JournalSchema versions JournalEntry. v2 adds the header and window
// kinds and runtime samples; v1 journals (run entries only) still parse,
// and so do records carrying fields no longer written (dropped_spans).
const JournalSchema = "iawj-journal/v2"

// journalSchemaPrefix accepts any iawj journal version on read.
const journalSchemaPrefix = "iawj-journal/"

// EntryOf flattens a metrics.Result into a run journal entry.
func EntryOf(res metrics.Result) JournalEntry {
	e := JournalEntry{
		Schema:        JournalSchema,
		Kind:          "run",
		Algorithm:     res.Algorithm,
		Threads:       res.Threads,
		Inputs:        res.Inputs,
		Matches:       res.Matches,
		SinkRuns:      res.SinkRuns,
		ThroughputTPM: res.ThroughputTPM,
		LatencyP50Ms:  res.LatencyP50Ms,
		LatencyP95Ms:  res.LatencyP95Ms,
		LatencyP99Ms:  res.LatencyP99Ms,
		LatencyMaxMs:  res.LatencyMaxMs,
		WallNs:        res.WallNs,
		CPUUtil:       res.CPUUtil,
		MemPeakBytes:  res.MemPeakBytes,
		PhaseNs:       make(map[string]int64, len(res.PhaseNs)),

		PoolHits:          poolCounts(res.Pool.Hits),
		PoolMisses:        poolCounts(res.Pool.Misses),
		PoolRetainedBytes: res.Pool.RetainedBytes,

		OutputDelivered:   res.Output.Delivered,
		OutputParked:      res.Output.Parked,
		OutputPeakBacklog: res.Output.PeakBacklog,
		OutputWaits:       res.Output.Waits,
	}
	for i, ns := range res.PhaseNs {
		e.PhaseNs[metrics.Phase(i).String()] = ns
	}
	if res.Matches > 0 {
		for _, p := range res.Progress {
			e.Progress = append(e.Progress, ProgressPoint{Ms: p.V, Frac: p.Frac})
		}
	}
	return e
}

// poolCounts names the non-zero per-kind pool counters; nil when all are
// zero, so the field is omitted.
func poolCounts(counts [metrics.NumPoolKinds]int64) map[string]int64 {
	var out map[string]int64
	for k, n := range counts {
		if n == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]int64, len(counts))
		}
		out[metrics.PoolKind(k).String()] = n
	}
	return out
}

// windowEntryOf flattens one window's result into a window journal entry.
func windowEntryOf(res metrics.Result, id int, startMs, endMs int64) JournalEntry {
	e := EntryOf(res)
	e.Kind = "window"
	e.Window = &WindowInfo{ID: id, StartMs: startMs, EndMs: endMs}
	return e
}

// RuntimeSample is the Go runtime as a journal record is written: the
// process-level counters a performance model (or a human reading a
// regression report) needs to separate join cost from runtime
// interference — GC pressure, heap growth, goroutine explosions,
// scheduler queueing.
type RuntimeSample struct {
	// AtNs is nanoseconds since the journal writer was opened.
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

// The runtime/metrics a RuntimeSample reads, by their index in the
// writer's scratch slice.
const (
	rtHeapLive = iota
	rtGoroutines
	rtGCCycles
	rtGCPauses
	rtSchedLat
)

var runtimeMetrics = [...]string{
	rtHeapLive:   "/memory/classes/heap/objects:bytes",
	rtGoroutines: "/sched/goroutines:goroutines",
	rtGCCycles:   "/gc/cycles/total:gc-cycles",
	rtGCPauses:   "/sched/pauses/total/gc:seconds",
	rtSchedLat:   "/sched/latencies:seconds",
}

// JournalWriter appends JSONL entries; safe for concurrent use. Every run
// and window record carries a RuntimeSample read under the writer's mutex
// as the record is written.
type JournalWriter struct {
	mu  sync.Mutex
	enc *json.Encoder

	// rt is reused by every runtime read: runtime/metrics keeps the
	// histogram buffers of a Sample across reads, so once NewJournalWriter
	// has primed it a read allocates nothing.
	rt     []rtm.Sample
	opened clock.Stopwatch
}

// NewJournalWriter wraps w; each Write emits one line.
func NewJournalWriter(w io.Writer) *JournalWriter {
	jw := &JournalWriter{
		enc:    json.NewEncoder(w),
		rt:     make([]rtm.Sample, len(runtimeMetrics)),
		opened: clock.StartStopwatch(),
	}
	for i, name := range runtimeMetrics {
		jw.rt[i].Name = name
	}
	rtm.Read(jw.rt)
	return jw
}

// WriteHeader emits the environment header entry. Call it once when the
// journal file is created; appenders re-emitting it is harmless (readers
// keep the first header).
func (jw *JournalWriter) WriteHeader() error {
	if jw == nil {
		return nil
	}
	env := CurrentEnv()
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.enc.Encode(JournalEntry{Schema: JournalSchema, Kind: "header", Env: &env})
}

// Write appends one run summary. Nil-safe, so callers can keep an optional
// journal without branching; a nil journal builds no entry.
func (jw *JournalWriter) Write(res metrics.Result) error {
	if jw == nil {
		return nil
	}
	return jw.write(EntryOf(res))
}

// WriteWindow appends one window summary of a windowed sweep; nil-safe
// like Write.
func (jw *JournalWriter) WriteWindow(res metrics.Result, id int, startMs, endMs int64) error {
	if jw == nil {
		return nil
	}
	return jw.write(windowEntryOf(res, id, startMs, endMs))
}

func (jw *JournalWriter) write(e JournalEntry) error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	rs := jw.readRuntime()
	e.Runtime = &rs
	return jw.enc.Encode(e)
}

// readRuntime reads the runtime into the scratch slice; the caller holds
// jw.mu. A metric the running Go does not know reads as KindBad and
// leaves its field zero.
func (jw *JournalWriter) readRuntime() RuntimeSample {
	rtm.Read(jw.rt)
	return RuntimeSample{
		AtNs:           jw.opened.ElapsedNs(),
		HeapLiveBytes:  rtUint(jw.rt[rtHeapLive]),
		Goroutines:     rtUint(jw.rt[rtGoroutines]),
		GCCycles:       rtUint(jw.rt[rtGCCycles]),
		GCPauseNsTotal: histTotalNs(rtHist(jw.rt[rtGCPauses])),
		SchedLatP99Ns:  histQuantileNs(rtHist(jw.rt[rtSchedLat]), 0.99),
	}
}

func rtUint(s rtm.Sample) int64 {
	if s.Value.Kind() != rtm.KindUint64 {
		return 0
	}
	return int64(s.Value.Uint64())
}

func rtHist(s rtm.Sample) *rtm.Float64Histogram {
	if s.Value.Kind() != rtm.KindFloat64Histogram {
		return nil
	}
	return s.Value.Float64Histogram()
}

// histTotalNs approximates the histogram's value sum in nanoseconds using
// bucket midpoints (runtime/metrics buckets are in seconds); 0 for nil.
func histTotalNs(h *rtm.Float64Histogram) int64 {
	if h == nil {
		return 0
	}
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

// histQuantileNs returns the q-quantile of the histogram in nanoseconds:
// the lower bound of the bucket holding the ceil(q*total)-th observation
// (the upper bound when the lower one is -Inf), matching the conservative
// convention of internal/metrics; 0 for nil or empty.
func histQuantileNs(h *rtm.Float64Histogram, q float64) int64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := min(max(uint64(math.Ceil(q*float64(total))), 1), total)
	var cum uint64
	for i, c := range h.Counts {
		if cum += c; cum < target {
			continue
		}
		lo := h.Buckets[i]
		if math.IsInf(lo, -1) {
			lo = h.Buckets[i+1]
		}
		if math.IsInf(lo, 0) {
			return 0
		}
		return int64(lo * 1e9)
	}
	return 0 // not reached: cum ends at total >= target
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

// Journal is a parsed journal file: the first header (if any) plus the
// run and window entries in file order.
type Journal struct {
	Env     *EnvInfo
	Runs    []JournalEntry
	Windows []JournalEntry
}

// ReadJournal parses a JSONL journal (v1 or v2). Unknown kinds are
// skipped so the format can grow; a line that is not valid JSON or does
// not carry an iawj journal schema is an error.
func ReadJournal(r io.Reader) (Journal, error) {
	var j Journal
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal([]byte(raw), &e); err != nil {
			return Journal{}, fmt.Errorf("trace: journal line %d: %w", line, err)
		}
		if !strings.HasPrefix(e.Schema, journalSchemaPrefix) {
			return Journal{}, fmt.Errorf("trace: journal line %d: schema %q is not an iawj journal", line, e.Schema)
		}
		switch e.Kind {
		case "header":
			if j.Env == nil {
				j.Env = e.Env
			}
		case "run":
			j.Runs = append(j.Runs, e)
		case "window":
			if e.Window == nil {
				return Journal{}, fmt.Errorf("trace: journal line %d: window entry without window identity", line)
			}
			j.Windows = append(j.Windows, e)
		}
	}
	if err := sc.Err(); err != nil {
		return Journal{}, fmt.Errorf("trace: journal: %w", err)
	}
	if len(j.Runs) == 0 && len(j.Windows) == 0 && j.Env == nil {
		return Journal{}, fmt.Errorf("trace: journal contains no entries")
	}
	return j, nil
}
