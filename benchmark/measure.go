package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"

	"repro/internal/trace"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// perColumn expands prefix.<column> over cols.
func perColumn(prefix, unit string, cols []string) []metricDef {
	defs := make([]metricDef, len(cols))
	for i, c := range cols {
		defs[i] = metricDef{prefix + "." + c, unit}
	}
	return defs
}

// endToEndDefs lists the end-to-end metrics BENCHMARK.json bounds, in its
// order: what the untraced run prints on standard output, on every
// workload. The run measures every column's finish_ms and, on a paced
// workload, the eager columns' lat_p95_ms as well; they are in its table
// and report file only, because none repeated within a bound of 0.10 in
// the recorded A/A check (README.md, "What is not gated").
func endToEndDefs() []metricDef {
	return []metricDef{{"setup_s", "s"}, {"alloc_mb", "MB"}}
}

// series collects the samples of each metric of one run; a metric's value
// is what typical makes of them.
type series struct {
	order   []string
	unit    map[string]string
	samples map[string][]float64
}

func newSeries() *series {
	return &series{unit: map[string]string{}, samples: map[string][]float64{}}
}

func (s *series) add(name, unit string, v float64) {
	if _, seen := s.unit[name]; !seen {
		s.order = append(s.order, name)
		s.unit[name] = unit
	}
	s.samples[name] = append(s.samples[name], v)
}

func (s *series) value(name string) float64 { return typical(s.samples[name]) }

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line summary the benchmark contract asks for.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// all reports every metric the run measured.
func (s *series) all() map[string]value {
	out := make(map[string]value, len(s.order))
	for _, name := range s.order {
		out[name] = value{s.value(name), s.unit[name]}
	}
	return out
}

// selectDefs reports the metrics named by defs, failing on one that is
// missing or not finite: the run must emit exactly the advertised names.
func (s *series) selectDefs(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := s.value(d.name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%d samples)", d.name, len(s.samples[d.name]))
		}
		out[d.name] = value{v, d.unit}
	}
	return out, nil
}

// table prints the metrics for a human.
func (s *series) table(f *os.File) {
	tw := tabwriter.NewWriter(f, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tn\tmin\tmedian\tmax\t")
	for _, name := range s.order {
		xs := s.samples[name]
		fmt.Fprintf(tw, "%s\t%.4f\t%s\t%d\t%.4f\t%.4f\t%.4f\t\n", name, typical(xs), s.unit[name], len(xs), slices.Min(xs), median(xs), slices.Max(xs))
	}
	tw.Flush()
}

// environment is the stamp that lets a reader tell hosts apart.
type environment struct {
	trace.EnvInfo        // Go version, OS, architecture, CPUs, GOMAXPROCS
	CPUModel      string `json:"cpu_model"`
	LoadAvg       string `json:"load_average"`
}

func stampEnvironment() environment {
	e := environment{EnvInfo: trace.CurrentEnv()}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		e.LoadAvg = strings.TrimSpace(string(buf))
	}
	return e
}

// calibSink takes results nothing else uses, so that the loops computing
// them are not optimized away.
var calibSink uint64

// calibrate times a fixed piece of work — a strided sum over a buffer of
// the given size, one load per cache line, and a fixed integer recurrence —
// and returns milliseconds. It is run before and after a workload so that
// a reader can tell host drift from a code change; it never rescales a
// metric. The buffer lives for the call only: left on the heap it would
// move the collector's trigger for every sample in between.
func calibrate(bytes int) float64 {
	buf := make([]uint64, bytes/8)
	for i := range buf {
		buf[i] = uint64(i)
	}
	start := proc.ElapsedNs()
	var sum uint64
	for pass := 0; pass < 4; pass++ {
		for i := pass; i < len(buf); i += 8 {
			sum += buf[i]
		}
	}
	x := uint64(88172645463325252)
	for i := 0; i < 1<<24; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += sum + x
	return float64(proc.ElapsedNs()-start) / 1e6
}

// bench runs timed jobs of one workload and keeps the failure account.
type bench struct {
	w                 *workload
	lat               *latRecorder // made by the first latency sample
	attempted, failed int
	minSampleNs       int64
}

func newBench(w *workload) *bench { return &bench{w: w, minSampleNs: math.MaxInt64} }

// timed runs one job on col after a collection outside the timed region.
// A job that errs or returns another match count than the reference is a
// failed operation and contributes no sample.
func (b *bench) timed(col string, job func() (outcome, error)) (o outcome, allocBytes uint64, ok bool) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	o, err := job()
	runtime.ReadMemStats(&after)
	b.attempted++
	if err == nil && o.matches != b.w.ref.Full.Count {
		err = fmt.Errorf("%d matches, reference has %d", o.matches, b.w.ref.Full.Count)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "FAILED %s %s: %v\n", b.w.name, col, err)
		return o, 0, false
	}
	b.minSampleNs = min(b.minSampleNs, o.ns)
	return o, after.TotalAlloc - before.TotalAlloc, true
}

// sample times the workload's job on col, counting matches only, as the
// paper measures.
func (b *bench) sample(col string) (outcome, uint64, bool) {
	return b.timed(col, func() (outcome, error) { return b.w.run(col, nil) })
}

// moreRounds decides whether another round fits: at least least rounds,
// then while the mean round so far still fits in what is left of the budget.
func moreRounds(done, least int, elapsedNs, budgetNs int64) bool {
	if done < least {
		return true
	}
	return elapsedNs+elapsedNs/int64(done) <= budgetNs
}

// endToEnd is the untraced run: rounds of one finish sample per column,
// the starting column rotated by one each round, and on a paced workload
// one latency sample per eager column after them.
func (b *bench) endToEnd(s *series, budgetNs int64) int {
	start := proc.ElapsedNs()
	done := 0
	for ; moreRounds(done, 3, proc.ElapsedNs()-start, budgetNs); done++ {
		var roundAlloc uint64
		whole := true
		for _, ci := range rotation(done, len(columns)) {
			col := columns[ci]
			o, alloc, ok := b.sample(col)
			if !ok {
				whole = false
				continue
			}
			s.add("finish_ms."+col, "ms", b.w.finishMs(o))
			roundAlloc += alloc
		}
		if whole {
			s.add("alloc_mb.round", "MB", float64(roundAlloc)/1e6)
		}
		if b.w.paceNs == 0 {
			continue // at rest every input is due at once: there is no arrival to be late after
		}
		for _, col := range columns[eagerLo:eagerHi] {
			if lat, ok := b.latencySample(col); ok {
				s.add("lat_p95_ms."+col, "ms", lat.p95)
			}
		}
	}
	// The pool's freelists settle over the first two or three rounds, as
	// the columns hand buffers to each other in another order each round,
	// and until then a round allocates up to a third more. The least of
	// the rounds is what a settled round allocates whatever their number.
	if rounds := s.samples["alloc_mb.round"]; len(rounds) > 0 {
		s.add("alloc_mb", "MB", slices.Min(rounds))
	}
	return done
}
