package main

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestFormatJSONIsAJournal: what -format json prints is the journal form —
// a header, then the run record or one window record per joined window —
// so it round-trips through trace.ReadJournal (and so through iawjinspect).
func TestFormatJSONIsAJournal(t *testing.T) {
	common := []string{"run", ".", "-workload", "Stock", "-scale", "0.002", "-atrest", "-algorithm", "NPJ", "-format", "json"}
	for _, c := range []struct {
		name          string
		extra         []string
		runs, windows int
	}{
		{"one run", nil, 1, 0},
		{"windowed", []string{"-windowms", "50"}, 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command("go", append(common, c.extra...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.String())
			}
			j, err := trace.ReadJournal(bytes.NewReader(out))
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
			}
		})
	}
}

// TestRadixBitsOutOfRange: -radixbits 64 used to reach the partitioner,
// where 1<<64 == 0 partitions is an index-out-of-range panic (and 40 an
// out-of-memory death). It is a knob error now, reported like any other.
func TestRadixBitsOutOfRange(t *testing.T) {
	cmd := exec.Command("go", "run", ".", "-workload", "Stock", "-scale", "0.002", "-algorithm", "PRJ", "-radixbits", "64")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("-radixbits 64 must exit non-zero")
	}
	got := stderr.String()
	if !strings.Contains(got, "core: PRJ: radix bits 64 exceed the maximum 20") || strings.Contains(got, "panic") {
		t.Fatalf("stderr = %q, want the knob error and no panic", got)
	}
}
