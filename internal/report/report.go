// Package report compares two run journals (iawj-journal/v1 or /v2) and
// produces an A/B regression verdict: per-algorithm and per-window deltas
// of throughput, latency quantiles, and the per-phase time breakdown,
// with a noise-aware threshold so ordinary run-to-run jitter does not read
// as a regression. cmd/iawjreport is the CLI; scripts/check.sh runs it as
// the "report smoke" gate, the phase/latency-level sibling of
// `make bench-gate`'s kernel ns/op comparison.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/trace"
)

// Options tunes the comparison.
type Options struct {
	// ThresholdPct is the relative noise threshold: a metric must move
	// by more than this percentage (in the "worse" direction) to count
	// as a regression. Non-positive selects 25.
	ThresholdPct float64
	// MinLatencyMs is the absolute floor for latency regressions: a
	// quantile must both exceed the relative threshold and grow by at
	// least this many milliseconds. Non-positive selects 2.
	MinLatencyMs int64
	// MinPhaseNs is the absolute floor for per-phase regressions.
	// Non-positive selects 1e6 (1ms of summed thread time).
	MinPhaseNs int64
	// Strict makes an environment mismatch between the two journals a
	// failure instead of a downgrade-to-warning.
	Strict bool
}

func (o *Options) defaults() {
	if o.ThresholdPct <= 0 {
		o.ThresholdPct = 25
	}
	if o.MinLatencyMs <= 0 {
		o.MinLatencyMs = 2
	}
	if o.MinPhaseNs <= 0 {
		o.MinPhaseNs = 1e6
	}
}

// Delta is one metric's movement between base and new for one key.
type Delta struct {
	// Scope is "run" (whole-run records keyed by algorithm) or "window"
	// (window records keyed by algorithm + window id).
	Scope     string `json:"scope"`
	Algorithm string `json:"algorithm"`
	// WindowID is the window identity for window-scope deltas, -1 for
	// run scope.
	WindowID int `json:"window_id"`
	// Metric names what moved: "throughput_tuples_per_ms",
	// "latency_p50_ms" / "latency_p95_ms" / "latency_p99_ms", or
	// "phase:<name>_ns".
	Metric string  `json:"metric"`
	Base   float64 `json:"base"`
	New    float64 `json:"new"`
	// DeltaPct is signed so that positive means worse (throughput drop,
	// latency/phase growth).
	DeltaPct  float64 `json:"delta_pct"`
	Regressed bool    `json:"regressed"`
	Improved  bool    `json:"improved"`
}

// Key renders the delta's identity for human output.
func (d Delta) Key() string {
	if d.Scope == "window" {
		return fmt.Sprintf("%s window %d", d.Algorithm, d.WindowID)
	}
	return d.Algorithm
}

// Report is the outcome of one comparison.
type Report struct {
	BaseEnv *trace.EnvInfo `json:"base_env,omitempty"`
	NewEnv  *trace.EnvInfo `json:"new_env,omitempty"`
	// EnvMismatch lists the environment fields that differ between the
	// journals; non-empty means cross-machine comparison, whose
	// regressions are reported but untrusted (see Failed).
	EnvMismatch []string `json:"env_mismatch,omitempty"`
	// Deltas holds every compared metric, regressions first.
	Deltas []Delta `json:"deltas"`
	// MissingKeys were present in base but absent in new (always a
	// failure: a vanished algorithm or window is not noise).
	MissingKeys []string `json:"missing_keys,omitempty"`
	// AddedKeys are new-only; reported, never failed.
	AddedKeys []string `json:"added_keys,omitempty"`
	// Strict records whether the comparison ran in strict mode.
	Strict bool `json:"strict"`
}

// Regressions filters the regressed deltas.
func (r *Report) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// Failed reports whether the comparison should gate (non-zero exit).
// Regressions measured across mismatched environments are flagged but do
// not fail unless Strict: a slower machine is not a slower join.
func (r *Report) Failed() bool {
	if len(r.MissingKeys) > 0 {
		return true
	}
	if len(r.EnvMismatch) > 0 {
		return r.Strict
	}
	return len(r.Regressions()) > 0
}

// sample is the per-key aggregate the comparison runs on.
type sample struct {
	scope    string
	alg      string
	windowID int
	n        float64

	throughput float64
	latP50     float64
	latP95     float64
	latP99     float64
	phaseNs    map[string]float64
}

func keyOf(scope, alg string, windowID int) string {
	if scope == "window" {
		return fmt.Sprintf("%s#%d", alg, windowID)
	}
	return alg
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
		k := keyOf(scope, e.Algorithm, windowID)
		s := out[k]
		if s == nil {
			s = &sample{scope: scope, alg: e.Algorithm, windowID: windowID, phaseNs: map[string]float64{}}
			out[k] = s
		}
		s.n++
		s.throughput += e.ThroughputTPM
		s.latP50 += float64(e.LatencyP50Ms)
		s.latP95 += float64(e.LatencyP95Ms)
		s.latP99 += float64(e.LatencyP99Ms)
		for ph, ns := range e.PhaseNs {
			s.phaseNs[ph] += float64(ns)
		}
	}
	for _, s := range out {
		s.throughput /= s.n
		s.latP50 /= s.n
		s.latP95 /= s.n
		s.latP99 /= s.n
		for ph := range s.phaseNs {
			s.phaseNs[ph] /= s.n
		}
	}
	return out
}

// Compare diffs two parsed journals: run records by algorithm, window
// records by (algorithm, window id).
func Compare(base, cur trace.Journal, opts Options) *Report {
	opts.defaults()
	r := &Report{BaseEnv: base.Env, NewEnv: cur.Env, Strict: opts.Strict}
	r.EnvMismatch = envMismatch(base.Env, cur.Env)

	compareKeyed(r, aggregate(base.Runs, "run"), aggregate(cur.Runs, "run"), opts)
	compareKeyed(r, aggregate(base.Windows, "window"), aggregate(cur.Windows, "window"), opts)

	sort.SliceStable(r.Deltas, func(i, j int) bool {
		if r.Deltas[i].Regressed != r.Deltas[j].Regressed {
			return r.Deltas[i].Regressed
		}
		return math.Abs(r.Deltas[i].DeltaPct) > math.Abs(r.Deltas[j].DeltaPct)
	})
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
	if a.GoVersion != b.GoVersion {
		out = append(out, fmt.Sprintf("go_version %s vs %s", a.GoVersion, b.GoVersion))
	}
	if a.GOOS != b.GOOS {
		out = append(out, fmt.Sprintf("goos %s vs %s", a.GOOS, b.GOOS))
	}
	if a.GOARCH != b.GOARCH {
		out = append(out, fmt.Sprintf("goarch %s vs %s", a.GOARCH, b.GOARCH))
	}
	if a.NumCPU != b.NumCPU {
		out = append(out, fmt.Sprintf("num_cpu %d vs %d", a.NumCPU, b.NumCPU))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		out = append(out, fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	// Zero is a journal from before the field: unknown, not different.
	if a.ProbePrefetch != b.ProbePrefetch && a.ProbePrefetch != 0 && b.ProbePrefetch != 0 {
		out = append(out, fmt.Sprintf("probe_prefetch %d vs %d", a.ProbePrefetch, b.ProbePrefetch))
	}
	return out
}

func compareKeyed(r *Report, base, cur map[string]*sample, opts Options) {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b := base[k]
		c, ok := cur[k]
		if !ok {
			r.MissingKeys = append(r.MissingKeys, keyOf2(b))
			continue
		}
		r.Deltas = append(r.Deltas, diffSamples(b, c, opts)...)
	}
	added := make([]string, 0)
	for k, c := range cur {
		if _, ok := base[k]; !ok {
			added = append(added, keyOf2(c))
		}
	}
	sort.Strings(added)
	r.AddedKeys = append(r.AddedKeys, added...)
}

func keyOf2(s *sample) string {
	if s.scope == "window" {
		return fmt.Sprintf("%s window %d", s.alg, s.windowID)
	}
	return s.alg
}

func diffSamples(b, c *sample, opts Options) []Delta {
	var out []Delta
	mk := func(metric string, base, cur float64, worseIsHigher bool, absFloor float64) {
		d := Delta{
			Scope:     b.scope,
			Algorithm: b.alg,
			WindowID:  b.windowID,
			Metric:    metric,
			Base:      base,
			New:       cur,
		}
		if base > 0 {
			if worseIsHigher {
				d.DeltaPct = (cur - base) * 100 / base
			} else {
				d.DeltaPct = (base - cur) * 100 / base
			}
		} else if cur > 0 && worseIsHigher {
			d.DeltaPct = 100
		}
		worseAbs := cur - base
		if !worseIsHigher {
			worseAbs = base - cur
		}
		if d.DeltaPct > opts.ThresholdPct && worseAbs >= absFloor {
			d.Regressed = true
		} else if d.DeltaPct < -opts.ThresholdPct && -worseAbs >= absFloor {
			d.Improved = true
		}
		out = append(out, d)
	}
	mk("throughput_tuples_per_ms", b.throughput, c.throughput, false, 0)
	mk("latency_p50_ms", b.latP50, c.latP50, true, float64(opts.MinLatencyMs))
	mk("latency_p95_ms", b.latP95, c.latP95, true, float64(opts.MinLatencyMs))
	mk("latency_p99_ms", b.latP99, c.latP99, true, float64(opts.MinLatencyMs))
	phases := make([]string, 0, len(b.phaseNs))
	for ph := range b.phaseNs {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		mk("phase:"+ph+"_ns", b.phaseNs[ph], c.phaseNs[ph], true, float64(opts.MinPhaseNs))
	}
	return out
}

// WriteMarkdown renders the report as a markdown document.
func (r *Report) WriteMarkdown(w io.Writer) {
	fmt.Fprintln(w, "# iawjreport")
	fmt.Fprintln(w)
	if len(r.EnvMismatch) > 0 {
		fmt.Fprintln(w, "> **warning: cross-machine comparison** — the journals were recorded on")
		fmt.Fprintln(w, "> different environments; deltas below are flagged, not trusted:")
		for _, m := range r.EnvMismatch {
			fmt.Fprintf(w, "> - %s\n", m)
		}
		fmt.Fprintln(w)
	}
	if len(r.MissingKeys) > 0 {
		fmt.Fprintln(w, "## Missing from new journal")
		fmt.Fprintln(w)
		for _, k := range r.MissingKeys {
			fmt.Fprintf(w, "- %s\n", k)
		}
		fmt.Fprintln(w)
	}
	if len(r.AddedKeys) > 0 {
		fmt.Fprintln(w, "## Only in new journal")
		fmt.Fprintln(w)
		for _, k := range r.AddedKeys {
			fmt.Fprintf(w, "- %s\n", k)
		}
		fmt.Fprintln(w)
	}
	reg := r.Regressions()
	if len(reg) > 0 {
		fmt.Fprintln(w, "## Regressions")
		fmt.Fprintln(w)
		writeDeltaTable(w, reg)
		fmt.Fprintln(w)
	}
	var improved []Delta
	for _, d := range r.Deltas {
		if d.Improved {
			improved = append(improved, d)
		}
	}
	if len(improved) > 0 {
		fmt.Fprintln(w, "## Improvements")
		fmt.Fprintln(w)
		writeDeltaTable(w, improved)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%d metrics compared, %d regressed, %d improved",
		len(r.Deltas), len(reg), len(improved))
	if len(r.MissingKeys) > 0 {
		fmt.Fprintf(w, ", %d missing", len(r.MissingKeys))
	}
	fmt.Fprintln(w)
}

func writeDeltaTable(w io.Writer, deltas []Delta) {
	fmt.Fprintln(w, "| key | metric | base | new | delta |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|")
	for _, d := range deltas {
		// DeltaPct is signed so positive always means worse.
		fmt.Fprintf(w, "| %s | %s | %.2f | %.2f | %+.1f%% |\n",
			d.Key(), d.Metric, d.Base, d.New, d.DeltaPct)
	}
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
