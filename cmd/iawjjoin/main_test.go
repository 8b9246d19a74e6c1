package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	iawj "repro"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/trace"
)

// bin is the command under test, built once by TestMain so exit codes are
// the command's own, not go run's.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "iawjjoin-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "iawjjoin")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// iawjjoin runs the command and returns its stdout, stderr and exit code.
func iawjjoin(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errs
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errs.String(), code
}

// TestFormatJSONIsAJournal: what -format json prints is the journal form —
// a header, then the run record or one window record per joined window,
// each carrying a runtime sample — so it round-trips through
// trace.ReadJournal (and so through iawjinspect).
func TestFormatJSONIsAJournal(t *testing.T) {
	common := []string{"-workload", "Stock", "-scale", "0.002", "-atrest", "-algorithm", "NPJ", "-format", "json"}
	for _, c := range []struct {
		name          string
		extra         []string
		runs, windows int
	}{
		{"one run", nil, 1, 0},
		{"windowed", []string{"-windowms", "50"}, 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, stderr, code := iawjjoin(t, append(common, c.extra...)...)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr)
			}
			j, err := trace.ReadJournal(strings.NewReader(out))
			if err != nil {
				t.Fatalf("stdout is not a journal: %v\n%s", err, out)
			}
			if j.Env == nil || len(j.Runs) != c.runs || len(j.Windows) != c.windows {
				t.Fatalf("header %v, %d runs, %d windows; want a header, %d runs, %d windows\n%s",
					j.Env != nil, len(j.Runs), len(j.Windows), c.runs, c.windows, out)
			}
			for _, e := range append(j.Runs, j.Windows...) {
				if e.Algorithm != "NPJ" || e.Matches != 300 || e.PhaseNs["probe"] <= 0 {
					t.Errorf("record lost the run: %+v", e)
				}
				if e.Runtime == nil {
					t.Errorf("%s record carries no runtime sample", e.Kind)
				}
			}
		})
	}
}

// TestRadixBitsOutOfRange: -radixbits 64 used to reach the partitioner,
// where 1<<64 == 0 partitions is an index-out-of-range panic (and 40 an
// out-of-memory death). It is a knob error now, reported like any other.
func TestRadixBitsOutOfRange(t *testing.T) {
	_, stderr, code := iawjjoin(t, "-workload", "Stock", "-scale", "0.002", "-algorithm", "PRJ", "-radixbits", "64")
	if code == 0 {
		t.Fatal("-radixbits 64 must exit non-zero")
	}
	if !strings.Contains(stderr, "core: PRJ: radix bits 64 exceed the maximum 20") || strings.Contains(stderr, "panic") {
		t.Fatalf("stderr = %q, want the knob error and no panic", stderr)
	}
}

// stockRow is Stock's Table 3 row at -scale 0.01, as the generator's
// statistics mode has printed it since before it became -stats.
const stockRow = "Stock    |R|=610      |S|=770      vR=61.0     vS=77.0     dupeR=9.5      dupeS=12.0     skewR=0.317 skewS=0.365 atRest=false\n"

// TestStatsPrintsTable3Rows: -stats prints the loaded input's row, and
// with no input the rows of the four real-world workloads.
func TestStatsPrintsTable3Rows(t *testing.T) {
	out, stderr, code := iawjjoin(t, "-stats", "-workload", "Stock", "-scale", "0.01")
	if code != 0 || out != stockRow {
		t.Fatalf("exit %d, stdout %q, want %q\n%s", code, out, stockRow, stderr)
	}
	out, stderr, code = iawjjoin(t, "-stats", "-scale", "0.01")
	rows := strings.SplitAfter(out, "\n")
	if code != 0 || len(rows) != 5 || rows[0] != stockRow {
		t.Fatalf("exit %d, stdout %q, want four rows starting with Stock's\n%s", code, out, stderr)
	}
	for i, name := range gen.Names() {
		if !strings.HasPrefix(rows[i], name+" ") {
			t.Errorf("row %d = %q, want %s's", i, rows[i], name)
		}
	}
}

// TestOutRoundTrips: what -out writes loads back through
// gen.LoadCSVWorkload into relations whose join digest is the generated
// input's, for a real-world workload and for Micro with its knobs.
func TestOutRoundTrips(t *testing.T) {
	for _, c := range []struct {
		args []string
		want gen.Workload
	}{
		{[]string{"-workload", "Stock", "-scale", "0.002"}, gen.Stock(0.002, 42)},
		{[]string{"-workload", "Micro", "-scale", "0.02", "-rate", "40", "-dupe", "4", "-keyskew", "0.5", "-seed", "7"},
			gen.Micro(gen.MicroConfig{RateR: 40, RateS: 40, WindowMs: 20, Dupe: 4, KeySkew: 0.5, Seed: 7})},
	} {
		t.Run(c.want.Name, func(t *testing.T) {
			prefix := filepath.Join(t.TempDir(), "w")
			if _, stderr, code := iawjjoin(t, append(c.args, "-out", prefix)...); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr)
			}
			got, err := gen.LoadCSVWorkload("csv", prefix+"_R.csv", prefix+"_S.csv")
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.Reference(c.want.R, c.want.S)
			if d := oracle.Reference(got.R, got.S); d != want || want.Full.Count == 0 {
				t.Errorf("round trip digest %v, want %v", d.Full, want.Full)
			}
		})
	}
}

// TestAdvisePrintsTheLibrarysPick: -advise prints what
// iawj.Advise(iawj.ProfileWorkload(…)) says for the loaded input, and
// -algorithm all races the eight with the recommended one marked.
func TestAdvisePrintsTheLibrarysPick(t *testing.T) {
	args := []string{"-advise", "-workload", "Stock", "-scale", "0.01", "-threads", "2", "-objective", "latency"}
	adv := iawj.Advise(iawj.ProfileWorkload(gen.Stock(0.01, 42), 2, iawj.OptLatency))
	want := "recommended: " + adv.Algorithm + "\n"
	for _, step := range adv.Path {
		want += "  - " + step + "\n"
	}
	out, stderr, code := iawjjoin(t, args...)
	if code != 0 || out != want {
		t.Fatalf("exit %d, stdout %q, want %q\n%s", code, out, want, stderr)
	}
	out, stderr, code = iawjjoin(t, append(args, "-algorithm", "all")...)
	if code != 0 || !strings.HasPrefix(out, want) || !strings.Contains(out, "measured best for latency: ") {
		t.Fatalf("exit %d, stdout %q\n%s", code, out, stderr)
	}
	raced := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || !slices.Contains(iawj.Algorithms(), f[0]) {
			continue
		}
		raced++
		if marked := f[len(f)-1] == "<-"; marked != (f[0] == adv.Algorithm) {
			t.Errorf("%s marked %v, recommended %s:\n%s", f[0], marked, adv.Algorithm, out)
		}
	}
	if raced != len(iawj.Algorithms()) {
		t.Errorf("raced %d algorithms, want %d:\n%s", raced, len(iawj.Algorithms()), out)
	}
}

// TestFlagOutsideItsModeExits2: a flag the chosen mode does not read is a
// usage error, not silently ignored.
func TestFlagOutsideItsModeExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-stats", "-format", "json"},
		{"-out", "x", "-algorithm", "NPJ"},
		{"-advise", "-journal", "j.jsonl"},
		{"-stats", "-advise"},
		{"-workload", "Stock", "-rate", "100"},
		{"-spec", mixedSpec, "-seed", "7"},
		{"-spec", mixedSpec, "-out", "x", "-scale", "0.5"},
		{"-workload", "Stock", "-algorithm", "all"},
		{"-workload", "Stock", "-advise", "-algorithm", "NPJ"},
	} {
		if _, stderr, code := iawjjoin(t, args...); code != 2 || !strings.Contains(stderr, args[len(args)-2]) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %s", args, code, stderr, args[len(args)-2])
		}
	}
}

// mixedSpec is the checked-in three-client spec: 1000 ms of arrivals in
// two 500 ms windows, one client replaying a recorded journal.
const mixedSpec = "../../examples/specs/mixed.json"

// TestSpecIsAnInput: a workload spec is one more input of every mode. The
// joins run on the spec's tuples through the join's own arrival clock, so
// a paced window reports the latency its arrivals saw.
func TestSpecIsAnInput(t *testing.T) {
	t.Run("join", func(t *testing.T) {
		out, stderr, code := iawjjoin(t, "-spec", mixedSpec, "-atrest", "-algorithm", "SHJ_JM")
		if code != 0 || !strings.HasPrefix(out, "workload    mixed-3client (|R|=19502 |S|=20101 window=500ms atRest=true)\n") ||
			!strings.Contains(out, "algorithm   SHJ_JM") {
			t.Fatalf("exit %d, stdout %q\n%s", code, out, stderr)
		}
	})
	t.Run("windowed journal", func(t *testing.T) {
		for _, atRest := range []bool{true, false} {
			args := []string{"-spec", mixedSpec, "-windowms", "500", "-algorithm", "SHJ_JM", "-format", "json"}
			if atRest {
				args = append(args, "-atrest")
			}
			out, stderr, code := iawjjoin(t, args...)
			if code != 0 {
				t.Fatalf("%v: exit %d\n%s", args, code, stderr)
			}
			j, err := trace.ReadJournal(strings.NewReader(out))
			if err != nil {
				t.Fatalf("%v: stdout is not a journal: %v\n%s", args, err, out)
			}
			var matches int64
			for _, e := range j.Windows {
				matches += e.Matches
				if e.Runtime == nil || (!atRest && e.LatencyP95Ms <= 0) {
					t.Errorf("%v: window %d record: runtime %v, p95 latency %d ms", args, e.Window.ID, e.Runtime != nil, e.LatencyP95Ms)
				}
			}
			if len(j.Windows) != 2 || matches != 49500 {
				t.Fatalf("%v: %d window records, %d matches; want 2 windows, 49500 matches\n%s", args, len(j.Windows), matches, out)
			}
		}
	})
	t.Run("stats and advise", func(t *testing.T) {
		out, stderr, code := iawjjoin(t, "-spec", mixedSpec, "-stats")
		if code != 0 || !strings.HasPrefix(out, "mixed-3client |R|=19502    |S|=20101 ") {
			t.Fatalf("-stats: exit %d, stdout %q\n%s", code, out, stderr)
		}
		out, stderr, code = iawjjoin(t, "-spec", mixedSpec, "-advise", "-threads", "2")
		if code != 0 || !strings.HasPrefix(out, "recommended: ") {
			t.Fatalf("-advise: exit %d, stdout %q\n%s", code, out, stderr)
		}
	})
	t.Run("strict parse", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "classed.json")
		spec := `{"version": 1, "name": "classed", "seed": 1, "preset": {"name": "Stock", "scale": 0.01, "slo_class": "gold"}}`
		if err := os.WriteFile(bad, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, stderr, code := iawjjoin(t, "-spec", bad); code != 1 || !strings.Contains(stderr, `unknown field "slo_class"`) {
			t.Fatalf("exit %d, stderr %q; want exit 1 naming slo_class", code, stderr)
		}
	})
}

// TestRetiredFlagsAreGone: a retired flag is not a flag at all, so asking
// for it is a usage error. The sort joins always run the radix sort
// (-simd); the journal is the one serialized form of a run (-serve), and
// every record of it reads the runtime as it is written (-sample).
func TestRetiredFlagsAreGone(t *testing.T) {
	for _, flag := range []string{"-simd=false", "-serve=127.0.0.1:0", "-sample=5ms"} {
		name, _, _ := strings.Cut(flag, "=")
		_, stderr, code := iawjjoin(t, "-workload", "Stock", "-scale", "0.002", "-algorithm", "MWAY", flag)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+name) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 for an undefined flag", name, code, stderr)
		}
	}
}
