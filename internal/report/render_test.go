package report_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/trace"
)

// renders is the number of times TestRendersAreByteStable renders each
// emitter. Go randomizes where every range over a map starts, so an
// emitter that lets map order reach its bytes differs between two renders
// of one input; twenty renders make a pass by chance negligible.
const renders = 20

// TestRendersAreByteStable renders every emitter that ranges over a map
// while building its output, twenty times from one input, and requires the
// same bytes every time: the artefacts the figures are read from
// (experiment lists, A/B reports, kernel verdicts, trace reports) must be
// diffable run to run. An error's text counts as output. The inputs have
// more than one algorithm, phase and worker, keys only one side has, and
// equal-|delta| ties, so every map the emitters range over has several
// keys to shuffle.
func TestRendersAreByteStable(t *testing.T) {
	base, cur := abJournals()
	windows := trace.Journal{Env: base.Env, Windows: append(base.Windows, cur.Windows...)}
	recorded := []byte(`{"schema":"iawj-kernelbench/v1","benchtime":"300x","results":[
		{"kernel":"probe","variant":"scalar","ns_per_op":1000},{"kernel":"probe","variant":"batched","ns_per_op":1250},
		{"kernel":"build","variant":"scalar","ns_per_op":1000},{"kernel":"build","variant":"batched","ns_per_op":1250},
		{"kernel":"sort","variant":"scalar","ns_per_op":1000},{"kernel":"sort","variant":"radix","ns_per_op":1100},
		{"kernel":"partition","variant":"rehash","ns_per_op":1000},{"kernel":"partition","variant":"swwcb","ns_per_op":2000}],
		"speedup_vs_baseline":{"probe_batched":0.8,"build_batched":0.8,"sort_radix":0.909,"partition_swwcb":0.5}}`)
	fresh := []byte(`{"schema":"iawj-kernelbench/v1","benchtime":"300x","results":[
		{"kernel":"probe","variant":"scalar","ns_per_op":1000},{"kernel":"probe","variant":"batched","ns_per_op":1500},
		{"kernel":"build","variant":"scalar","ns_per_op":1000},{"kernel":"build","variant":"simd","ns_per_op":500},
		{"kernel":"sort","variant":"scalar","ns_per_op":900},{"kernel":"sort","variant":"radix","ns_per_op":990}]}`)
	spans, algName := analyzeSpans()

	for _, c := range []struct {
		name   string
		render func(w io.Writer) error
	}{
		{"exp.IDs", func(w io.Writer) error {
			_, err := fmt.Fprintln(w, exp.IDs())
			return err
		}},
		{"report.KernelGate/recorded", func(w io.Writer) error { return report.KernelGate(w, recorded) }},
		{"report.KernelGate/fresh", func(w io.Writer) error { return report.KernelGate(w, recorded, fresh, fresh) }},
		{"report.Compare", func(w io.Writer) error {
			report.Compare(base, cur, report.Options{}).WriteMarkdown(w)
			return nil
		}},
		{"report.CompareWindows", func(w io.Writer) error {
			report.CompareWindows(windows, 0, 1, report.Options{}).WriteMarkdown(w)
			report.CompareWindows(windows, 2, 5, report.Options{}).WriteMarkdown(w)
			return nil
		}},
		{"trace.Analyze", func(w io.Writer) error {
			trace.Analyze(spans, algName).WriteText(w)
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			render := func() string {
				var out bytes.Buffer
				if err := c.render(&out); err != nil {
					fmt.Fprintf(&out, "error: %v\n", err)
				}
				return out.String()
			}
			first := render()
			if first == "" {
				t.Fatal("rendered nothing")
			}
			for i := 1; i < renders; i++ {
				if got := render(); got != first {
					t.Fatalf("render %d differs from render 1 of the same input:\n--- render 1 ---\n%s--- render %d ---\n%s", i+1, first, i+1, got)
				}
			}
		})
	}
}

// abJournals is a base and a new journal of five algorithms each, three of
// them in both: run records with four phases whose deltas tie at ±50%,
// and window records, some windows only in one journal.
func abJournals() (base, cur trace.Journal) {
	envA := trace.EnvInfo{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 8, GOMAXPROCS: 8}
	envB := envA
	envB.NumCPU, envB.GOMAXPROCS = 4, 4
	base.Env, cur.Env = &envA, &envB
	entry := func(alg string, tpm float64, p95, phaseNs int64) trace.JournalEntry {
		return trace.JournalEntry{
			Schema: trace.JournalSchema, Kind: "run", Algorithm: alg, ThroughputTPM: tpm,
			LatencyP50Ms: p95 / 2, LatencyP95Ms: p95, LatencyP99Ms: p95 + 4,
			PhaseNs: map[string]int64{"partition": phaseNs, "build/sort": phaseNs, "probe": 2 * phaseNs, "merge": phaseNs / 2},
		}
	}
	window := func(e trace.JournalEntry, id int) trace.JournalEntry {
		e.Kind = "window"
		e.Window = &trace.WindowInfo{ID: id, StartMs: int64(id) * 50, EndMs: int64(id+1) * 50}
		return e
	}
	for _, alg := range []string{"NPJ", "PRJ", "MWAY", "SHJ_JM", "PMJ_JB"} {
		base.Runs = append(base.Runs, entry(alg, 100, 8, 4e6))
		for id := 0; id < 4; id++ {
			base.Windows = append(base.Windows, window(entry(alg, 100, 8, 4e6), id))
		}
	}
	for i, alg := range []string{"NPJ", "MWAY", "SHJ_JM", "MPASS", "SHJ_JB"} {
		// Every shared metric moves by exactly 50%, worse or better in
		// turn: throughput halves or grows by half, latencies and phases
		// grow or shrink by half.
		if i%2 == 0 {
			cur.Runs = append(cur.Runs, entry(alg, 50, 12, 6e6))
		} else {
			cur.Runs = append(cur.Runs, entry(alg, 150, 4, 2e6))
		}
		for id := 2; id < 6; id++ {
			cur.Windows = append(cur.Windows, window(entry(alg, 50, 12, 6e6), id))
		}
	}
	return base, cur
}

// analyzeSpans is three algorithms' spans over three phases and four
// workers, with stragglers of equal ratio in several cells.
func analyzeSpans() ([]trace.Span, func(int32) string) {
	names := []string{"SHJ_JM", "NPJ", "PMJ_JB"}
	var spans []trace.Span
	for alg := int32(0); alg < int32(len(names)); alg++ {
		for _, phase := range []metrics.Phase{metrics.PhasePartition, metrics.PhaseBuildSort, metrics.PhaseProbe} {
			for tid := int32(0); tid < 4; tid++ {
				dur, tuples := int64(1e6), int64(100)
				if tid == 3 {
					dur, tuples = 3e6, 100*int64(phase)
				}
				fine := func(startNs, durNs, tuples int64) trace.Span {
					s := trace.Span{TID: tid, Phase: int32(phase), Alg: alg, StartNs: startNs, EndNs: startNs + durNs}
					s.Ns[phase], s.Tuples[phase] = durNs, tuples
					return s
				}
				spans = append(spans,
					fine(int64(phase)*1e7, dur/2, tuples/2),
					fine(int64(phase)*1e7+dur/2, dur-dur/2, tuples-tuples/2))
			}
		}
	}
	return spans, func(i int32) string { return names[i] }
}
