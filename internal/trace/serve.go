package trace

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// Registry aggregates completed-run metrics per algorithm and, when a live
// Recorder is attached, per-phase span totals of the run in flight. It
// serves everything in the Prometheus text exposition format without any
// dependency beyond net/http.
type Registry struct {
	mu   sync.Mutex
	algs map[string]*algStats

	// The recorder latch is taken on every span flush while mu is taken
	// by scrapes; keep the two on separate cache lines.
	_   [48]byte
	rec struct {
		sync.Mutex
		r *Recorder
	}

	// The sampler latch is taken by the sampling goroutine's writes while
	// rec.Mutex is taken on scrapes; separate lines, same reasoning.
	_   [48]byte
	smp struct {
		sync.Mutex
		s *Sampler
	}
}

// algStats accumulates one algorithm's observed runs.
type algStats struct {
	runs     int64
	inputs   int64
	matches  int64
	sinkRuns int64
	phaseNs  [6]int64

	// Gauges from the most recent run.
	throughputTPM      float64
	p50, p95, p99, max int64
	cpuUtil            float64
	memPeak            int64

	// Window-pool traffic summed over the runs, and the retained bytes
	// the most recent run saw.
	pool metrics.PoolStats

	// Output-path traffic summed over the runs, and the peak backlog the
	// most recent run saw.
	output metrics.OutputStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{algs: map[string]*algStats{}}
}

// Observe folds one finished run into the per-algorithm counters.
func (g *Registry) Observe(res metrics.Result) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.algs[res.Algorithm]
	if st == nil {
		st = &algStats{}
		g.algs[res.Algorithm] = st
	}
	st.runs++
	st.inputs += res.Inputs
	st.matches += res.Matches
	st.sinkRuns += res.SinkRuns
	for i, ns := range res.PhaseNs {
		st.phaseNs[i] += ns
	}
	st.throughputTPM = res.ThroughputTPM
	st.p50, st.p95, st.p99, st.max = res.LatencyP50Ms, res.LatencyP95Ms, res.LatencyP99Ms, res.LatencyMaxMs
	st.cpuUtil = res.CPUUtil
	st.memPeak = res.MemPeakBytes
	for k := range res.Pool.Hits {
		st.pool.Hits[k] += res.Pool.Hits[k]
		st.pool.Misses[k] += res.Pool.Misses[k]
	}
	st.pool.RetainedBytes = res.Pool.RetainedBytes
	st.output.Delivered += res.Output.Delivered
	st.output.Parked += res.Output.Parked
	st.output.Waits += res.Output.Waits
	st.output.PeakBacklog = res.Output.PeakBacklog
}

// Attach exposes a live recorder's span totals on /metrics; pass nil to
// detach.
func (g *Registry) Attach(r *Recorder) {
	if g == nil {
		return
	}
	g.rec.Lock()
	g.rec.r = r
	g.rec.Unlock()
}

// AttachSampler exposes a runtime sampler's latest sample as
// iawj_runtime_* series on /metrics; pass nil to detach.
func (g *Registry) AttachSampler(s *Sampler) {
	if g == nil {
		return
	}
	g.smp.Lock()
	g.smp.s = s
	g.smp.Unlock()
}

// escapeLabel escapes a Prometheus label value.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// ServeHTTP implements the /metrics handler.
func (g *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	g.mu.Lock()
	names := make([]string, 0, len(g.algs))
	for name := range g.algs {
		names = append(names, name)
	}
	sort.Strings(names)

	writeHeader := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	writeHeader("iawj_runs_total", "counter", "Completed join runs per algorithm.")
	for _, name := range names {
		fmt.Fprintf(&b, "iawj_runs_total{algorithm=%q} %d\n", escapeLabel(name), g.algs[name].runs)
	}
	writeHeader("iawj_inputs_total", "counter", "Input tuples consumed per algorithm.")
	for _, name := range names {
		fmt.Fprintf(&b, "iawj_inputs_total{algorithm=%q} %d\n", escapeLabel(name), g.algs[name].inputs)
	}
	writeHeader("iawj_matches_total", "counter", "Join matches produced per algorithm.")
	for _, name := range names {
		fmt.Fprintf(&b, "iawj_matches_total{algorithm=%q} %d\n", escapeLabel(name), g.algs[name].matches)
	}
	writeHeader("iawj_sink_runs_total", "counter", "Runs the matches reached the sink in per algorithm: matches over runs is what one sink call amortized over.")
	for _, name := range names {
		fmt.Fprintf(&b, "iawj_sink_runs_total{algorithm=%q} %d\n", escapeLabel(name), g.algs[name].sinkRuns)
	}
	writeHeader("iawj_phase_ns_total", "counter", "Per-phase busy nanoseconds per algorithm (Figure 7 breakdown).")
	for _, name := range names {
		for p, ns := range g.algs[name].phaseNs {
			fmt.Fprintf(&b, "iawj_phase_ns_total{algorithm=%q,phase=%q} %d\n",
				escapeLabel(name), escapeLabel(metrics.Phase(p).String()), ns)
		}
	}
	writeHeader("iawj_throughput_tuples_per_ms", "gauge", "Last-run throughput per algorithm.")
	for _, name := range names {
		fmt.Fprintf(&b, "iawj_throughput_tuples_per_ms{algorithm=%q} %g\n", escapeLabel(name), g.algs[name].throughputTPM)
	}
	writeHeader("iawj_latency_ms", "gauge", "Last-run latency quantiles per algorithm.")
	for _, name := range names {
		st := g.algs[name]
		for _, q := range []struct {
			label string
			v     int64
		}{{"0.5", st.p50}, {"0.95", st.p95}, {"0.99", st.p99}, {"max", st.max}} {
			fmt.Fprintf(&b, "iawj_latency_ms{algorithm=%q,quantile=%q} %d\n", escapeLabel(name), q.label, q.v)
		}
	}
	writeHeader("iawj_cpu_utilization", "gauge", "Last-run busy-thread fraction per algorithm.")
	for _, name := range names {
		fmt.Fprintf(&b, "iawj_cpu_utilization{algorithm=%q} %g\n", escapeLabel(name), g.algs[name].cpuUtil)
	}
	writeHeader("iawj_mem_peak_bytes", "gauge", "Last-run peak logical memory per algorithm.")
	for _, name := range names {
		fmt.Fprintf(&b, "iawj_mem_peak_bytes{algorithm=%q} %d\n", escapeLabel(name), g.algs[name].memPeak)
	}
	writeHeader("iawj_pool_hits_total", "counter", "Window-pool acquires served from a freelist, per algorithm and pooled kind.")
	for _, name := range names {
		for k, n := range g.algs[name].pool.Hits {
			fmt.Fprintf(&b, "iawj_pool_hits_total{algorithm=%q,kind=%q} %d\n", escapeLabel(name), metrics.PoolKind(k).String(), n)
		}
	}
	writeHeader("iawj_pool_misses_total", "counter", "Window-pool acquires that had to allocate, per algorithm and pooled kind.")
	for _, name := range names {
		for k, n := range g.algs[name].pool.Misses {
			fmt.Fprintf(&b, "iawj_pool_misses_total{algorithm=%q,kind=%q} %d\n", escapeLabel(name), metrics.PoolKind(k).String(), n)
		}
	}
	writeHeader("iawj_pool_retained_bytes", "gauge", "Bytes the window pool's freelists held after the algorithm's last run.")
	for _, name := range names {
		fmt.Fprintf(&b, "iawj_pool_retained_bytes{algorithm=%q} %d\n", escapeLabel(name), g.algs[name].pool.RetainedBytes)
	}
	writeHeader("iawj_output_batches_total", "counter", "Result batches on the output path per algorithm: delivered to the Emit consumer, and of those parked for another worker to deliver.")
	for _, name := range names {
		out := g.algs[name].output
		fmt.Fprintf(&b, "iawj_output_batches_total{algorithm=%q,fate=\"delivered\"} %d\n", escapeLabel(name), out.Delivered)
		fmt.Fprintf(&b, "iawj_output_batches_total{algorithm=%q,fate=\"parked\"} %d\n", escapeLabel(name), out.Parked)
	}
	writeHeader("iawj_output_waits_total", "counter", "Flushes that found the output backlog at its bound and waited: the consumer is slower than the join.")
	for _, name := range names {
		fmt.Fprintf(&b, "iawj_output_waits_total{algorithm=%q} %d\n", escapeLabel(name), g.algs[name].output.Waits)
	}
	writeHeader("iawj_output_peak_backlog", "gauge", "Most result batches parked at once during the algorithm's last run.")
	for _, name := range names {
		fmt.Fprintf(&b, "iawj_output_peak_backlog{algorithm=%q} %d\n", escapeLabel(name), g.algs[name].output.PeakBacklog)
	}
	g.mu.Unlock()

	g.rec.Lock()
	rec := g.rec.r
	g.rec.Unlock()
	if rec != nil {
		writeHeader("iawj_trace_spans", "gauge", "Published spans in the attached live recorder.")
		fmt.Fprintf(&b, "iawj_trace_spans %d\n", rec.SpanCount())
		writeHeader("iawj_trace_dropped_spans_total", "counter", "Spans dropped to full rings in the attached recorder.")
		fmt.Fprintf(&b, "iawj_trace_dropped_spans_total %d\n", rec.Dropped())

		snapshot := rec.Snapshot()

		// Live per-algorithm/per-phase busy time from the published spans:
		// the in-flight view of the Figure 7 breakdown.
		type key struct {
			alg   int32
			phase int32
		}
		byKey := map[key]int64{}
		for _, s := range snapshot {
			byKey[key{s.Alg, s.Phase}] += s.DurNs
		}
		keys := make([]key, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].alg != keys[j].alg {
				return keys[i].alg < keys[j].alg
			}
			return keys[i].phase < keys[j].phase
		})
		writeHeader("iawj_trace_span_ns_total", "counter", "Per-phase span nanoseconds published by the attached recorder.")
		for _, k := range keys {
			fmt.Fprintf(&b, "iawj_trace_span_ns_total{algorithm=%q,phase=%q} %d\n",
				escapeLabel(rec.AlgName(k.alg)), escapeLabel(metrics.Phase(k.phase).String()), byKey[k])
		}

		// The span analytics engine over the same snapshot: imbalance
		// ratios and barrier stalls per (algorithm, phase) cell.
		analysis := Analyze(snapshot, rec.AlgName, 0)
		writeHeader("iawj_phase_imbalance", "gauge", "Max/mean per-worker busy time per algorithm and phase (1.0 = balanced).")
		for _, st := range analysis.Phases {
			fmt.Fprintf(&b, "iawj_phase_imbalance{algorithm=%q,phase=%q} %g\n",
				escapeLabel(st.Algorithm), escapeLabel(st.Phase.String()), st.Imbalance)
		}
		writeHeader("iawj_barrier_stall_ns_total", "counter", "Nanoseconds workers spent finished while the slowest worker of the phase was still running.")
		for _, st := range analysis.Phases {
			fmt.Fprintf(&b, "iawj_barrier_stall_ns_total{algorithm=%q,phase=%q} %d\n",
				escapeLabel(st.Algorithm), escapeLabel(st.Phase.String()), st.BarrierStallNs)
		}
	}

	g.smp.Lock()
	smp := g.smp.s
	g.smp.Unlock()
	if smp != nil {
		if s, ok := smp.Latest(); ok {
			writeHeader("iawj_runtime_heap_live_bytes", "gauge", "Live-object heap bytes from the attached runtime sampler.")
			fmt.Fprintf(&b, "iawj_runtime_heap_live_bytes %d\n", s.HeapLiveBytes)
			writeHeader("iawj_runtime_goroutines", "gauge", "Live goroutines from the attached runtime sampler.")
			fmt.Fprintf(&b, "iawj_runtime_goroutines %d\n", s.Goroutines)
			writeHeader("iawj_runtime_gc_cycles_total", "counter", "Completed GC cycles since process start.")
			fmt.Fprintf(&b, "iawj_runtime_gc_cycles_total %d\n", s.GCCycles)
			writeHeader("iawj_runtime_gc_pause_ns_total", "counter", "Approximate total stop-the-world GC pause nanoseconds since process start.")
			fmt.Fprintf(&b, "iawj_runtime_gc_pause_ns_total %d\n", s.GCPauseNsTotal)
			writeHeader("iawj_runtime_sched_latency_p99_ns", "gauge", "p99 goroutine scheduling latency since process start.")
			fmt.Fprintf(&b, "iawj_runtime_sched_latency_p99_ns %d\n", s.SchedLatP99Ns)
		}
	}

	_, _ = w.Write([]byte(b.String()))
}

// NewServeMux assembles the live observability endpoint: Prometheus text
// on /metrics, the net/http/pprof profiler under /debug/pprof/, expvar on
// /debug/vars, and a trivial /healthz. Mount it with http.ListenAndServe
// or httptest for tests.
func NewServeMux(g *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", g)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

// Serve starts the observability endpoint on addr in a goroutine and
// returns the listener address (useful with ":0"). The server runs until
// the process exits; errors after startup are reported on errc if non-nil.
func Serve(addr string, g *Registry, errc chan<- error) (string, error) {
	srv := &http.Server{Addr: addr, Handler: NewServeMux(g)}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	//lint:allow goroutineleak the endpoint intentionally serves for the process lifetime
	go func() {
		err := srv.Serve(ln)
		if errc != nil {
			errc <- err
		}
	}()
	return ln.Addr().String(), nil
}
