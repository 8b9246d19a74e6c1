package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	iawj "repro"
)

// manifestMetrics reads the metric lists of the committed BENCHMARK.json.
func manifestMetrics(t *testing.T) (endToEnd, perLayer []metricDef) {
	t.Helper()
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness has %v", names, workloadNames)
	}
	defs := func(ms []manifestMetric) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{m.Name, m.Unit}
		}
		return out
	}
	return defs(man.EndToEnd), defs(man.PerLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEveryWorkloadEmitsTheManifest runs all four workloads at tiny scale,
// untraced and traced, and holds what they print to BENCHMARK.json: exactly
// its names, each with its unit and a finite value, and no failed operation.
func TestEveryWorkloadEmitsTheManifest(t *testing.T) {
	endToEnd, perLayer := manifestMetrics(t)
	if !slices.Equal(endToEnd, endToEndDefs()) {
		t.Errorf("end_to_end of BENCHMARK.json differs from endToEndDefs:\n%v\n%v", endToEnd, endToEndDefs())
	}
	if !slices.Equal(perLayer, perLayerDefs()) {
		t.Errorf("per_layer of BENCHMARK.json differs from perLayerDefs:\n%v\n%v", perLayer, perLayerDefs())
	}
	out := t.TempDir()
	for _, name := range workloadNames {
		for trace, want := range [][]metricDef{endToEnd, perLayer} {
			opt := options{seed: 7, seconds: 0.2, trace: trace, scale: "tiny", out: out}
			res, err := runWorkload(name, opt, proc.ElapsedNs())
			if err != nil {
				t.Fatalf("%s trace %d: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d operations failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", name, trace, d.name)
				case m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace %d: metric %s = %v %q, want a finite value in %q", name, trace, d.name, m.Value, m.Unit, d.unit)
				case !metricName.MatchString(d.name):
					t.Errorf("metric name %q is outside the contract's alphabet", d.name)
				}
			}
		}
		checkSpanFile(t, filepath.Join(out, "spans-"+name+".json"))
		checkUntracedReport(t, filepath.Join(out, "report-"+name+"-untraced.json"), name == "paced_stock")
	}
}

// checkUntracedReport: the untraced run measures all fifteen end-to-end
// names of the issue, also those BENCHMARK.json does not bound, and its
// report file has them; lat_p95_ms on a paced workload only.
func checkUntracedReport(t *testing.T, path string, paced bool) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	want := perColumn("finish_ms", "ms", columns)
	if paced {
		want = append(want, perColumn("lat_p95_ms", "ms", columns[eagerLo:eagerHi])...)
	}
	want = append(want, endToEndDefs()...)
	for _, d := range want {
		if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit || !(m.Value > 0) || len(rep.Samples[d.name]) == 0 {
			t.Errorf("%s: metric %s = %+v with %d samples", path, d.name, m, len(rep.Samples[d.name]))
		}
	}
	if rounds := rep.Samples["alloc_mb.round"]; len(rounds) != rep.Rounds || rep.Metrics["alloc_mb"].Value != slices.Min(rounds) {
		t.Errorf("%s: alloc_mb = %v, its %d rounds allocated %v", path, rep.Metrics["alloc_mb"].Value, rep.Rounds, rounds)
	}
}

// checkSpanFile holds a traced run's span dump to the tree it claims to
// be: a child lies inside its parent, children together never exceed it,
// and the self times of every job's tree sum to the job's duration.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(buf, &spans); err != nil {
		t.Fatal(err)
	}
	treeSelf := map[int]int64{} // root ID -> sum of self times below and at it
	kids := map[int]int64{}
	jobs := 0
	for _, sp := range spans {
		root := sp.ID
		if sp.Parent != 0 {
			p := spans[sp.Parent-1]
			if sp.StartNs < p.StartNs || sp.EndNs > p.EndNs {
				t.Errorf("%s: span %d (%s) leaves its parent %d", path, sp.ID, sp.Name, p.ID)
			}
			kids[p.ID] += sp.EndNs - sp.StartNs
			root = p.ID // the harness records two levels
		}
		treeSelf[root] += sp.SelfNs
		if sp.Name == "job" {
			jobs++
		}
	}
	if jobs == 0 {
		t.Errorf("%s: no job span", path)
	}
	for _, sp := range spans {
		dur := sp.EndNs - sp.StartNs
		if kids[sp.ID] > dur {
			t.Errorf("%s: children of span %d cover %d ns of its %d", path, sp.ID, kids[sp.ID], dur)
		}
		if sp.Parent == 0 && math.Abs(float64(treeSelf[sp.ID]-dur)) > 0.02*float64(dur) {
			t.Errorf("%s: self times under span %d sum to %d ns, its duration is %d", path, sp.ID, treeSelf[sp.ID], dur)
		}
	}
}

// TestCorruptedReferenceIsCaught proves both checks fire: a digest that
// differs from the reference fails set-up's verification, and a timed job
// whose match count differs is a failed operation that leaves no sample.
func TestCorruptedReferenceIsCaught(t *testing.T) {
	w, err := generate("rest_dup", true, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	good := w.ref
	w.ref.Full.Xor ^= 1
	if err := w.verify("PRJ"); err == nil {
		t.Error("verify accepted a column against a corrupted digest")
	}
	w.ref = good
	w.ref.Full.Count++
	b, s := newBench(w), newSeries()
	if rounds := b.endToEnd(s, 0); rounds != 3 {
		t.Errorf("ran %d rounds, want the least, 3", rounds)
	}
	if b.failed != b.attempted || b.attempted == 0 {
		t.Errorf("%d of %d operations failed against a corrupted match count, want all", b.failed, b.attempted)
	}
	if len(s.order) != 0 {
		t.Errorf("failed operations left samples: %v", s.order)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{9, 1}, 1},              // the smaller of two
		{[]float64{9, 1, 3}, 2},           // the two smaller of three
		{[]float64{100, 4, 2, 50}, 3},     // a burst in half the rounds leaves no trace
		{[]float64{5, 100, 1, 3, 200}, 3}, // the three smaller of five
	} {
		if got := typical(c.xs); got != c.want {
			t.Errorf("typical(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(typical(nil)) {
		t.Error("typical of nothing is a number")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 = quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1, 2 = %v, %v", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread of 1..5 = %v", got)
	}
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for q, want := range map[float64]int64{0.5: 50, 0.95: 100, 0.9: 90, 0.01: 10} {
		if got := rank(sorted, q); got != want {
			t.Errorf("rank %v = %d, want %d", q, got, want)
		}
	}
}

// TestRotation: a round visits every column once, and over as many rounds
// as there are columns each column takes every position once.
func TestRotation(t *testing.T) {
	n := len(columns)
	seen := make([][]bool, n) // seen[column][position]
	for i := range seen {
		seen[i] = make([]bool, n)
	}
	for round := 0; round < n; round++ {
		order := rotation(round, n)
		if order[0] != round%n {
			t.Errorf("round %d starts at column %d", round, order[0])
		}
		for pos, col := range order {
			if seen[col][pos] {
				t.Errorf("column %d takes position %d twice", col, pos)
			}
			seen[col][pos] = true
		}
	}
	if !slices.Equal(rotation(n+1, n), rotation(1, n)) {
		t.Error("rotation does not wrap")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60},  // overlaps span 2 by 10
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // runs past its parent
		{ID: 5, Parent: 2, StartNs: 10, EndNs: 25},
	}
	want := []int64{100 - 50 - 10, 30 - 15, 30, 30, 15}
	if got := selfNs(spans); !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestMoreRounds(t *testing.T) {
	const s = int64(1e9)
	cases := []struct {
		done            int
		elapsed, budget int64
		want            bool
	}{
		{2, 99 * s, 0, true},      // at least three rounds, whatever the budget
		{3, 9 * s, 10 * s, false}, // a fourth 3 s round would end at 12 s
		{3, 6 * s, 10 * s, true},
	}
	for _, c := range cases {
		if got := moreRounds(c.done, 3, c.elapsed, c.budget); got != c.want {
			t.Errorf("moreRounds(%d, %d, %d) = %v", c.done, c.elapsed, c.budget, got)
		}
	}
}

// TestLatencyIsTimedFromWhenTheInputWasDue feeds the recorder by hand.
func TestLatencyIsTimedFromWhenTheInputWasDue(t *testing.T) {
	l := newLatRecorder(4 * latCap) // stride 4
	if l.mask != 3 {
		t.Fatalf("mask %d, want 3", l.mask)
	}
	l.startNs = proc.ElapsedNs()
	for i := int32(0); i < 400; i++ {
		l.emit(iawj.JoinResult{TS: int64(i), PayloadS: i})
	}
	if got := l.n.Load(); got != 100 {
		t.Fatalf("kept %d of 400 results, want every fourth", got)
	}
	for i := range l.at[:100] {
		l.at[i] = int64(i+1) * 1e6 // emitted 1, 2, ... 100 ms after the start
	}
	// Result i was due at 4i simulated ms; at 0.1 ms each that is 0.4i ms.
	got := l.summarize(0.1e6)
	if math.Abs(got.p95-(95-0.4*94)) > 1e-9 || math.Abs(got.half-50) > 1e-9 {
		t.Errorf("summarize = %+v", got)
	}
	if atRest := l.summarize(0); atRest.p95 != 95 {
		t.Errorf("at rest p95 = %v, want 95", atRest.p95)
	}
}

// TestLatencyOverflowWidensTheStride: a job that kept more results than
// the buffer holds yields no sample; the stride doubles until one fits.
func TestLatencyOverflowWidensTheStride(t *testing.T) {
	w, err := generate("rest_dup", true, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	b := newBench(w)
	b.lat = &latRecorder{at: make([]int64, 1024), ts: make([]int64, 1024)} // keeps every result: far too many
	lat, ok := b.latencySample("SHJ_JM")
	kept := b.lat.n.Load()
	if !ok || b.failed != 0 || b.attempted < 2 || b.lat.mask == 0 {
		t.Fatalf("ok %v, %d failed of %d attempted, mask %d", ok, b.failed, b.attempted, b.lat.mask)
	}
	if kept == 0 || kept > 1024 {
		t.Errorf("the sample kept %d results, buffer holds 1024", kept)
	}
	if !(lat.p50 > 0 && lat.p50 <= lat.p95 && lat.p95 <= lat.p99) {
		t.Errorf("latencies %+v", lat)
	}
}
