// Package report compares two run journals (iawj-journal/v1 or /v2) and
// produces an A/B regression verdict: per-algorithm and per-window deltas
// of throughput, latency quantiles, and the per-phase time breakdown,
// with a noise-aware threshold so ordinary run-to-run jitter does not read
// as a regression. cmd/iawjinspect is the CLI (two journals on its command
// line); kernels.go is the kernel-level sibling, the ratio gate behind
// `make bench-gate`.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/trace"
)

// The noise floors: a metric regresses when it moves the wrong way by
// more than thresholdPct percent and, for latencies and phases, by at
// least the absolute floor as well.
const (
	thresholdPct = 25.0
	minLatencyMs = 2.0
	minPhaseNs   = 1e6 // 1ms of summed thread time
)

// Options tunes the comparison.
type Options struct {
	// Strict makes an environment mismatch between the two journals a
	// failure instead of a downgrade-to-warning.
	Strict bool
}

// delta is one metric's movement between base and new for one key.
type delta struct {
	// Scope is "run" (whole-run records keyed by algorithm) or "window"
	// (window records keyed by algorithm + window id).
	Scope     string
	Algorithm string
	// WindowID is the window identity for window-scope deltas, -1 for
	// run scope.
	WindowID int
	// Metric names what moved: "throughput_tuples_per_ms",
	// "latency_p50_ms" / "latency_p95_ms" / "latency_p99_ms", or
	// "phase:<name>_ns".
	Metric string
	Base   float64
	New    float64
	// DeltaPct is signed so that positive means worse (throughput drop,
	// latency/phase growth).
	DeltaPct  float64
	Regressed bool
	Improved  bool
}

// Report is the outcome of one comparison.
type Report struct {
	// EnvMismatch lists the environment fields that differ between the
	// journals; non-empty means cross-machine comparison, whose
	// regressions are reported but untrusted (see Failed).
	EnvMismatch []string
	// Deltas holds every compared metric, regressions first.
	Deltas []delta
	// MissingKeys were present in base but absent in new (always a
	// failure: a vanished algorithm or window is not noise).
	MissingKeys []string
	// AddedKeys are new-only; reported, never failed.
	AddedKeys []string
	// Failed says whether the comparison should gate (non-zero exit): a
	// key went missing, or a metric regressed. Regressions measured
	// across mismatched environments are flagged but fail only a strict
	// comparison: a slower machine is not a slower join.
	Failed bool
}

// regressions filters the regressed deltas.
func (r *Report) regressions() []delta {
	var out []delta
	for _, d := range r.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// sample is the per-key aggregate the comparison runs on: the mean of
// every compared metric over the entries sharing the key.
type sample struct {
	scope    string
	alg      string
	windowID int
	n        float64
	metric   map[string]float64
}

// metricsOf names what a journal entry is compared on: throughput, the
// latency quantiles and "phase:<name>_ns" per phase.
func metricsOf(e trace.JournalEntry) map[string]float64 {
	m := map[string]float64{
		"throughput_tuples_per_ms": e.ThroughputTPM,
		"latency_p50_ms":           float64(e.LatencyP50Ms),
		"latency_p95_ms":           float64(e.LatencyP95Ms),
		"latency_p99_ms":           float64(e.LatencyP99Ms),
	}
	for ph, ns := range e.PhaseNs {
		m["phase:"+ph+"_ns"] = float64(ns)
	}
	return m
}

// aggregate folds journal entries into per-key mean samples. Multiple
// entries with one key (repeated runs of one algorithm) average, which is
// itself noise reduction.
func aggregate(entries []trace.JournalEntry, scope string) map[string]*sample {
	out := map[string]*sample{}
	for _, e := range entries {
		windowID := -1
		if scope == "window" && e.Window != nil {
			windowID = e.Window.ID
		}
		k := keyName(scope, e.Algorithm, windowID)
		s := out[k]
		if s == nil {
			s = &sample{scope: scope, alg: e.Algorithm, windowID: windowID, metric: map[string]float64{}}
			out[k] = s
		}
		s.n++
		for name, v := range metricsOf(e) {
			s.metric[name] += v
		}
	}
	for _, s := range out {
		for name := range s.metric {
			s.metric[name] /= s.n
		}
	}
	return out
}

// Compare diffs two parsed journals: run records by algorithm, window
// records by (algorithm, window id).
func Compare(base, cur trace.Journal, opts Options) *Report {
	r := &Report{EnvMismatch: envMismatch(base.Env, cur.Env)}

	compareKeyed(r, aggregate(base.Runs, "run"), aggregate(cur.Runs, "run"))
	compareKeyed(r, aggregate(base.Windows, "window"), aggregate(cur.Windows, "window"))

	sort.SliceStable(r.Deltas, func(i, j int) bool {
		if r.Deltas[i].Regressed != r.Deltas[j].Regressed {
			return r.Deltas[i].Regressed
		}
		return math.Abs(r.Deltas[i].DeltaPct) > math.Abs(r.Deltas[j].DeltaPct)
	})
	switch {
	case len(r.MissingKeys) > 0:
		r.Failed = true
	case len(r.EnvMismatch) > 0:
		r.Failed = opts.Strict
	default:
		r.Failed = len(r.regressions()) > 0
	}
	return r
}

// CompareWindows diffs two windows of one journal — "did window k behave
// like window i" — keyed by algorithm.
func CompareWindows(j trace.Journal, baseID, curID int, opts Options) *Report {
	pick := func(id int) trace.Journal {
		var out trace.Journal
		out.Env = j.Env
		for _, e := range j.Windows {
			if e.Window != nil && e.Window.ID == id {
				run := e
				run.Kind = "run"
				run.Window = nil
				out.Runs = append(out.Runs, run)
			}
		}
		return out
	}
	return Compare(pick(baseID), pick(curID), opts)
}

func envMismatch(a, b *trace.EnvInfo) []string {
	if a == nil || b == nil {
		// A journal without a header cannot be attributed to a machine;
		// treat as comparable (v1 journals have no header).
		return nil
	}
	var out []string
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"go_version", a.GoVersion, b.GoVersion},
		{"goos", a.GOOS, b.GOOS},
		{"goarch", a.GOARCH, b.GOARCH},
		{"num_cpu", a.NumCPU, b.NumCPU},
		{"gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS},
		{"probe_prefetch", a.ProbePrefetch, b.ProbePrefetch},
	} {
		// A zero is a field the recording predates (probe_prefetch in
		// older journals): unknown, not different.
		if f.a != f.b && f.a != 0 && f.b != 0 {
			out = append(out, fmt.Sprintf("%s %v vs %v", f.name, f.a, f.b))
		}
	}
	return out
}

func compareKeyed(r *Report, base, cur map[string]*sample) {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b := base[k]
		c, ok := cur[k]
		if !ok {
			r.MissingKeys = append(r.MissingKeys, keyName(b.scope, b.alg, b.windowID))
			continue
		}
		r.Deltas = append(r.Deltas, diffSamples(b, c)...)
	}
	added := make([]string, 0)
	for k, c := range cur {
		if _, ok := base[k]; !ok {
			added = append(added, keyName(c.scope, c.alg, c.windowID))
		}
	}
	sort.Strings(added)
	r.AddedKeys = append(r.AddedKeys, added...)
}

// keyName names a compared key: the aggregation key, and what the report
// prints.
func keyName(scope, alg string, windowID int) string {
	if scope == "window" {
		return fmt.Sprintf("%s window %d", alg, windowID)
	}
	return alg
}

// diffSamples compares every metric of the base sample. Throughput is
// worse when lower and has no absolute floor; latencies and phases are
// worse when higher and must also move by their floor.
func diffSamples(b, c *sample) []delta {
	names := make([]string, 0, len(b.metric))
	for name := range b.metric {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []delta
	for _, name := range names {
		base, cur := b.metric[name], c.metric[name]
		worse, floor := cur-base, minLatencyMs
		switch {
		case name == "throughput_tuples_per_ms":
			worse, floor = base-cur, 0
		case strings.HasPrefix(name, "phase:"):
			floor = minPhaseNs
		}
		d := delta{Scope: b.scope, Algorithm: b.alg, WindowID: b.windowID, Metric: name, Base: base, New: cur}
		if base > 0 {
			d.DeltaPct = worse * 100 / base
		} else if worse > 0 {
			d.DeltaPct = 100
		}
		d.Regressed = d.DeltaPct > thresholdPct && worse >= floor
		d.Improved = d.DeltaPct < -thresholdPct && -worse >= floor
		out = append(out, d)
	}
	return out
}

// WriteMarkdown renders the report as a markdown document.
func (r *Report) WriteMarkdown(w io.Writer) {
	fmt.Fprintln(w, "# journal comparison")
	fmt.Fprintln(w)
	if len(r.EnvMismatch) > 0 {
		fmt.Fprintln(w, "> **warning: cross-machine comparison** — the journals were recorded on")
		fmt.Fprintln(w, "> different environments; deltas below are flagged, not trusted:")
		for _, m := range r.EnvMismatch {
			fmt.Fprintf(w, "> - %s\n", m)
		}
		fmt.Fprintln(w)
	}
	for _, keys := range []struct {
		title string
		keys  []string
	}{{"Missing from new journal", r.MissingKeys}, {"Only in new journal", r.AddedKeys}} {
		if len(keys.keys) > 0 {
			fmt.Fprintf(w, "## %s\n\n- %s\n\n", keys.title, strings.Join(keys.keys, "\n- "))
		}
	}
	var reg, improved []delta
	for _, d := range r.Deltas {
		if d.Regressed {
			reg = append(reg, d)
		} else if d.Improved {
			improved = append(improved, d)
		}
	}
	writeDeltaTable(w, "Regressions", reg)
	writeDeltaTable(w, "Improvements", improved)
	fmt.Fprintf(w, "%d metrics compared, %d regressed, %d improved",
		len(r.Deltas), len(reg), len(improved))
	if len(r.MissingKeys) > 0 {
		fmt.Fprintf(w, ", %d missing", len(r.MissingKeys))
	}
	fmt.Fprintln(w)
}

func writeDeltaTable(w io.Writer, title string, deltas []delta) {
	if len(deltas) == 0 {
		return
	}
	fmt.Fprintf(w, "## %s\n\n| key | metric | base | new | delta |\n|---|---|---:|---:|---:|\n", title)
	for _, d := range deltas {
		// DeltaPct is signed so positive always means worse.
		fmt.Fprintf(w, "| %s | %s | %.2f | %.2f | %+.1f%% |\n",
			keyName(d.Scope, d.Algorithm, d.WindowID), d.Metric, d.Base, d.New, d.DeltaPct)
	}
	fmt.Fprintln(w)
}
