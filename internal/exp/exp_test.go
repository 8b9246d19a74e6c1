package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// tinyOpts keeps experiment runs small enough for unit tests.
func tinyOpts(buf *bytes.Buffer) Options {
	return Options{
		W:             buf,
		Threads:       2,
		Scale:         0.002,
		MicroWindowMs: 5,
		Seed:          1,
	}
}

func TestTable3CoversAllWorkloads(t *testing.T) {
	var buf bytes.Buffer
	rows := Table3(tinyOpts(&buf))
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.StatsR.Tuples == 0 || r.StatsS.Tuples == 0 {
			t.Fatalf("empty workload in %s", r.Name)
		}
	}
	for _, want := range []string{"Stock", "Rovio", "YSB", "DEBS"} {
		if !names[want] {
			t.Fatalf("missing workload %s", want)
		}
	}
	if !strings.Contains(buf.String(), "Table 3") {
		t.Fatal("missing banner")
	}
}

func TestFigure3Series(t *testing.T) {
	var buf bytes.Buffer
	series := Figure3(tinyOpts(&buf))
	if len(series) != 4 { // Stock R/S, Rovio R/S
		t.Fatalf("series = %d, want 4", len(series))
	}
	for _, s := range series {
		total := 0
		for _, c := range s.Counts {
			total += c
		}
		if total == 0 {
			t.Fatalf("%s %s: empty histogram", s.Workload, s.Stream)
		}
	}
}

func TestFigure5AllCells(t *testing.T) {
	var buf bytes.Buffer
	rows := Figure5(tinyOpts(&buf))
	if len(rows) != 4*len(Algorithms) {
		t.Fatalf("rows = %d, want %d", len(rows), 4*len(Algorithms))
	}
	// Within one workload every algorithm must report the same match
	// count — they compute the same join.
	byWorkload := map[string]int64{}
	for _, r := range rows {
		if r.Result.Matches == 0 {
			t.Fatalf("%s/%s: no matches", r.Workload, r.Algorithm)
		}
		if prev, ok := byWorkload[r.Workload]; ok && prev != r.Result.Matches {
			t.Fatalf("%s: match counts diverge (%d vs %d)", r.Workload, prev, r.Result.Matches)
		}
		byWorkload[r.Workload] = r.Result.Matches
	}
}

func TestFigure6And7Shapes(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	prog := Figure6(o)
	if len(prog) == 0 {
		t.Fatal("no progressiveness rows")
	}
	for _, r := range prog {
		if r.T25 > r.T50 || r.T50 > r.T75 || r.T75 > r.T100 {
			t.Fatalf("%s/%s: progress times must be monotone: %d %d %d %d",
				r.Workload, r.Algorithm, r.T25, r.T50, r.T75, r.T100)
		}
	}
	breakdown := Figure7(o)
	for _, r := range breakdown {
		var sum float64
		for _, f := range r.Frac {
			if f < 0 {
				t.Fatalf("negative phase fraction in %s/%s", r.Workload, r.Algorithm)
			}
			sum += f
		}
		if sum > 1.01 {
			t.Fatalf("%s/%s: fractions sum to %f", r.Workload, r.Algorithm, sum)
		}
	}
}

func TestFigure8ProfilesPhases(t *testing.T) {
	var buf bytes.Buffer
	rows := Figure8(tinyOpts(&buf))
	if len(rows) != len(Algorithms) {
		t.Fatalf("rows = %d", len(rows))
	}
	sawProbe := false
	for _, r := range rows {
		if r.Probe.Accesses > 0 {
			sawProbe = true
		}
	}
	if !sawProbe {
		t.Fatal("no algorithm recorded probe-phase accesses")
	}
}

func TestMicroSweeps(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	o.MicroWindowMs = 3
	for name, fn := range map[string]func(Options) []SweepRow{
		"fig9":  Figure9,
		"fig10": Figure10,
		"fig11": Figure11,
		"fig12": Figure12,
		"fig13": Figure13,
		"fig14": Figure14,
	} {
		rows := fn(o)
		if len(rows) == 0 {
			t.Fatalf("%s: no rows", name)
		}
		for _, r := range rows {
			if r.Result.Matches <= 0 {
				t.Fatalf("%s: %s@%v produced no matches", name, r.Algorithm, r.Param)
			}
		}
	}
}

func TestKnobExperiments(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	if rows := Figure15(o); len(rows) != 5 {
		t.Fatalf("fig15 rows = %d", len(rows))
	}
	if rows := Figure16(o); len(rows) == 0 {
		t.Fatal("fig16 empty")
	}
	if rows := Figure18(o); len(rows) != 6 {
		t.Fatalf("fig18 rows = %d", len(rows))
	}
}

func TestFigure21SIMDContrast(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	o.Scale = 0.02 // enough work for the sort cost to dominate noise
	// Phase timings of a single run are vulnerable to scheduler noise on
	// small machines; take the best speedup across a few attempts — the
	// kernel-level contrast itself is asserted deterministically in
	// internal/sortmerge.
	best := map[string]float64{}
	for attempt := 0; attempt < 3; attempt++ {
		rows := Figure21(o)
		if len(rows) != 4 {
			t.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			if r.Speedup > best[r.Algorithm] {
				best[r.Algorithm] = r.Speedup
			}
		}
		if best["MWAY"] >= 0.9 && best["MPASS"] >= 0.9 {
			break
		}
	}
	// The SIMD substitute must help at least the pure sort joins.
	for _, name := range []string{"MWAY", "MPASS"} {
		if best[name] < 0.9 {
			t.Fatalf("%s: SIMD substitute slower than scalar across retries: %.2fx", name, best[name])
		}
	}
}

func TestProfileTables(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	if rows := Table5(o); len(rows) != len(Algorithms) {
		t.Fatalf("table5 rows = %d", len(rows))
	}
	rows := Table6(o)
	if len(rows) != len(Algorithms) {
		t.Fatalf("table6 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CPUUtil < 0 || r.CPUUtil > 100 {
			t.Fatalf("%s: cpu util %f out of range", r.Algorithm, r.CPUUtil)
		}
	}
}

func TestFigure19(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	a := Figure19a(o)
	if len(a) != len(Algorithms) {
		t.Fatalf("fig19a rows = %d", len(a))
	}
	for _, r := range a {
		sum := r.TopDown.Retiring + r.TopDown.CoreBound + r.TopDown.MemoryBound +
			r.TopDown.FrontendBound + r.TopDown.BadSpeculation
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s: top-down sums to %f", r.Algorithm, sum)
		}
	}
	b := Figure19b(o)
	for _, r := range b {
		if r.PeakBytes <= 0 {
			t.Fatalf("%s: no memory recorded", r.Algorithm)
		}
	}
}

func TestFigure20Scalability(t *testing.T) {
	var buf bytes.Buffer
	rows := Figure20(tinyOpts(&buf))
	if len(rows) != 8 { // 2 algorithms x 4 workloads
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Normalized) == 0 || r.Normalized[0] != 1 {
			t.Fatalf("%s/%s: normalized curve %v", r.Algorithm, r.Workload, r.Normalized)
		}
	}
}

func TestFigure4Decisions(t *testing.T) {
	var buf bytes.Buffer
	cases := Figure4(tinyOpts(&buf))
	if len(cases) < 6 {
		t.Fatalf("cases = %d", len(cases))
	}
	for _, c := range cases {
		if c.Advice.Algorithm == "" {
			t.Fatalf("%s: empty advice", c.Label)
		}
	}
}

func TestRelatedWorkBaseline(t *testing.T) {
	var buf bytes.Buffer
	rows := Related(tinyOpts(&buf))
	if len(rows) != len(Algorithms)+1 {
		t.Fatalf("rows = %d", len(rows))
	}
	var handshake, best float64
	for _, r := range rows {
		if r.Algorithm == "HANDSHAKE" {
			handshake = r.Result.ThroughputTPM
		}
		if r.Result.ThroughputTPM > best {
			best = r.Result.ThroughputTPM
		}
	}
	if handshake <= 0 {
		t.Fatal("handshake row missing")
	}
	if best < handshake*3 {
		t.Fatalf("handshake must trail the studied algorithms clearly: best=%.1f handshake=%.1f", best, handshake)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 8); got != "        " {
		t.Fatalf("empty curve: %q", got)
	}
	pts := []metrics.CumulativePoint{{V: 10, Frac: 0.5}, {V: 100, Frac: 1.0}}
	line := sparkline(pts, 16)
	if len([]rune(line)) != 16 {
		t.Fatalf("width = %d", len([]rune(line)))
	}
	if []rune(line)[15] != '@' {
		t.Fatalf("curve must end at 100%%: %q", line)
	}
}

func TestRegistry(t *testing.T) {
	if len(IDs()) != 23 {
		t.Fatalf("ids = %d, want 23 experiments", len(IDs()))
	}
	var buf bytes.Buffer
	o := tinyOpts(&buf)
	if err := Run("fig4", o); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"nope", "fig17"} { // fig17 is not reproduced (EXPERIMENTS.md)
		if err := Run(id, o); err == nil {
			t.Fatalf("unknown id %q must error", id)
		}
	}
}
