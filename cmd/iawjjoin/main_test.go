package main

import (
	"bytes"
	"os/exec"
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
