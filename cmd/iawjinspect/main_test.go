package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// inspect runs the CLI in-process and returns its exit code and streams.
func inspect(stdin string, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

// writeTemp drops content into a fresh file and returns its path.
func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRecognisesEveryArtefact(t *testing.T) {
	trace, err := os.ReadFile("testdata/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	// Traces written before full rings coarsened carry a drop count.
	dropped := writeTemp(t, "dropped.json",
		strings.Replace(string(trace), `"displayTimeUnit":"ms"`, `"displayTimeUnit":"ms","otherData":{"droppedSpans":"7"}`, 1))
	oldJournal := writeTemp(t, "v1.jsonl", `{"schema":"iawj-journal/v1","kind":"run","algorithm":"NPJ","matches":3}`+"\n")
	cutJournal := writeTemp(t, "cut.jsonl", `{"schema":"iawj-journal/v2","kind":"run","algorithm":"NPJ"}`+"\n"+`{"schema":"iawj-jou`)
	losing := writeTemp(t, "losing.json", `{"schema":"iawj-kernelbench/v1","benchtime":"1x",
		"results":[{"kernel":"probe","variant":"scalar","ns_per_op":10},{"kernel":"probe","variant":"batched","ns_per_op":11}],
		"speedup_vs_baseline":{"probe_batched":0.909}}`)
	badSpec := writeTemp(t, "spec.json", `{"version": 1, "name": "x", "bogus_knob": true}`)

	cases := []struct {
		name string
		args []string
		code int
		out  string // substring of stdout (code 0) or stderr (otherwise)
	}{
		{"trace", []string{"testdata/trace.json"}, 0, "Chrome trace, 39 spans"},
		{"trace analytics", []string{"testdata/trace.json"}, 0, "critical_tid"},
		{"trace want present", []string{"-want", "wait,partition,build/sort,merge,probe,others", "testdata/trace.json"}, 0, "MPASS"},
		{"trace want missing", []string{"-want", "probe,shuffle", "testdata/trace.json"}, 1, "missing phase(s) shuffle"},
		{"trace with dropped spans parses", []string{dropped}, 0, "Chrome trace, 39 spans"},
		{"journal", []string{"testdata/journal.jsonl"}, 0, "journal, 0 run and 2 window records"},
		{"journal per algorithm", []string{"testdata/journal.jsonl"}, 0, "SHJ_JM"},
		{"journal v1", []string{oldJournal}, 0, "1 run and 0 window records"},
		{"journal cut short", []string{cutJournal}, 1, "journal line 2"},
		{"two journals", []string{"testdata/journal.jsonl", "testdata/journal.jsonl"}, 0, "0 regressed"},
		{"two journals, one vanished", []string{"testdata/journal.jsonl", oldJournal}, 1, "comparison failed"},
		{"windows of one journal", []string{"-windows", "0,0", "testdata/journal.jsonl"}, 0, "0 regressed"},
		{"windows syntax", []string{"-windows", "zero", "testdata/journal.jsonl"}, 2, "base,new"},
		{"kernel sweep", []string{"../../BENCH_3.json"}, 0, "none below 1.0x"},
		{"kernel sweep losing", []string{losing}, 1, "probe_batched=0.909"},
		{"workload spec", []string{"../../examples/specs/mixed.json"}, 0, "workload spec mixed-3client"},
		{"workload spec invalid", []string{badSpec}, 1, "bogus_knob"},
		{"truncated trace", []string{"testdata/truncated.json"}, 1, "cut short"},
		{"garbage", []string{writeTemp(t, "garbage", "\x00\x01 not an artefact")}, 1, "not a Chrome trace"},
		{"no such file", []string{"testdata/absent.json"}, 2, "no such file"},
		{"want on a journal", []string{"-want", "probe", "testdata/journal.jsonl"}, 2, "-want applies"},
		{"unrelated artefacts", []string{"testdata/trace.json", "testdata/journal.jsonl"}, 2, "no inspection takes"},
		{"unknown flag", []string{"-q", "testdata/trace.json"}, 2, "flag provided but not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := inspect("", c.args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, c.code, stdout, stderr)
			}
			got := stdout
			if code != 0 {
				got = stderr
			}
			if !strings.Contains(got, c.out) {
				t.Errorf("output lacks %q:\n%s", c.out, got)
			}
		})
	}
}

// sweep renders go test -bench output for one kernel sweep: variant names
// to ns/op, all under BenchmarkKernelProbe.
func sweep(ns map[string]float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro/internal/hashtable\ncpu: test cpu\n")
	for _, variant := range []string{"scalar", "batched", "simd"} {
		if v, ok := ns[variant]; ok {
			fmt.Fprintf(&b, "BenchmarkKernelProbe/%s-2  \t 300\t %v ns/op\t 100.00 MB/s\n", variant, v)
		}
	}
	b.WriteString("PASS\nok  \trepro/internal/hashtable\t1.0s\n")
	return b.String()
}

// TestBenchOutputBecomesKernelSweep: bench text on stdin comes out in the
// BENCH_3.json form, which is itself an input.
func TestBenchOutputBecomesKernelSweep(t *testing.T) {
	text := sweep(map[string]float64{"scalar": 1000, "batched": 800}) +
		"BenchmarkKernelSinkMatch/count-2 \t 300\t 90 ns/op\nBenchmarkKernelSinkRun/count-2 \t 300\t 45 ns/op\n"
	code, stdout, stderr := inspect(text)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		`"schema": "iawj-kernelbench/v1"`, `"benchtime": "300x"`, `"cpu": "test cpu"`,
		`{"kernel": "probe", "variant": "batched", "ns_per_op": 800, "mb_per_s": 100}`,
		`{"kernel": "sink_count", "variant": "run", "ns_per_op": 45, "mb_per_s": null}`,
		`"probe_batched": 1.250`, `"sink_count_run": 2.000`,
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("sweep JSON lacks %s:\n%s", want, stdout)
		}
	}
	if code, out, stderr := inspect("", writeTemp(t, "sweep.json", stdout)); code != 0 || !strings.Contains(out, "4 variants at 300x") {
		t.Errorf("the written sweep does not read back: exit %d\n%s%s", code, out, stderr)
	}
}

func TestKernelGate(t *testing.T) {
	recorded := writeTemp(t, "recorded.json", `{"schema":"iawj-kernelbench/v1","benchtime":"300x",
		"results":[{"kernel":"probe","variant":"scalar","ns_per_op":1000},{"kernel":"probe","variant":"batched","ns_per_op":800}],
		"speedup_vs_baseline":{"probe_batched":1.25}}`)
	cases := []struct {
		name   string
		sweeps []map[string]float64
		code   int
		out    string // a line the gate must print
	}{
		{"unchanged", []map[string]float64{{"scalar": 1000, "batched": 800}, {"scalar": 1100, "batched": 880}}, 0,
			"probe/batched          ok        ratio vs scalar 0.800 -> 0.800"},
		{"ratio grown 15% in every sweep", []map[string]float64{{"scalar": 1000, "batched": 920}, {"scalar": 2000, "batched": 1840}}, 1,
			"probe/batched          REGRESSED ratio vs scalar 0.800 -> 0.920 (+15.0%; best of 2 sweeps)"},
		{"ratio grown in one sweep of two", []map[string]float64{{"scalar": 1000, "batched": 920}, {"scalar": 1000, "batched": 800}}, 0,
			"probe/batched          ok        ratio vs scalar 0.800 -> 0.800"},
		{"recorded variant absent", []map[string]float64{{"scalar": 1000}}, 1,
			"probe/batched          MISSING"},
		{"new variant", []map[string]float64{{"scalar": 1000, "batched": 800, "simd": 500}}, 0,
			"probe/simd             NEW                500 ns/op (no recorded value)"},
		{"baseline drift never fails", []map[string]float64{{"scalar": 3000, "batched": 2400}}, 0,
			"probe/scalar           drift             1000 -> 3000 ns/op (+200.0%)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := []string{recorded}
			for i, ns := range c.sweeps {
				args = append(args, writeTemp(t, fmt.Sprintf("sweep%d.txt", i), sweep(ns)))
			}
			code, stdout, stderr := inspect("", args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d\n%s%s", code, c.code, stdout, stderr)
			}
			if !strings.Contains(stdout, c.out) {
				t.Errorf("gate output lacks %q:\n%s", c.out, stdout)
			}
		})
	}
}
