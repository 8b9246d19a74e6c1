package trace

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

// TestSessionAppendsAndSamples: two sessions on one journal path leave one
// journal of two runs (opened for append; readers keep the first header),
// each record carrying a runtime sample, and Close leaves a readable
// trace file.
func TestSessionAppendsAndSamples(t *testing.T) {
	dir := t.TempDir()
	journal, tracePath := filepath.Join(dir, "runs.jsonl"), filepath.Join(dir, "trace.json")
	for _, alg := range []string{"NPJ", "SHJ_JM"} {
		obs := &Session{JournalPath: journal, TracePath: tracePath}
		if err := obs.Start(); err != nil {
			t.Fatal(err)
		}
		if obs.Recorder == nil || obs.Journal == nil {
			t.Fatalf("Start left out a part that was asked for: %+v", obs)
		}
		c := metrics.NewCollector(1)
		obs.Recorder.StartRun(alg, c)
		c.T(0).Begin(metrics.PhaseProbe)
		c.T(0).End()
		if err := obs.Record(metrics.Result{Algorithm: alg, Matches: 7}); err != nil {
			t.Fatal(err)
		}
		if err := obs.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	j, err := ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	if j.Env == nil || len(j.Runs) != 2 || j.Runs[0].Algorithm != "NPJ" || j.Runs[1].Algorithm != "SHJ_JM" {
		t.Fatalf("journal of two appended runs read back as %+v", j)
	}
	for _, e := range j.Runs {
		if e.Runtime == nil {
			t.Errorf("%s: record carries no runtime sample", e.Algorithm)
		}
	}
	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	if ct, err := ReadChrome(tf); err != nil || len(ct.TraceEvents) != 1 {
		t.Fatalf("trace file: %d events, err %v", len(ct.TraceEvents), err)
	}
}

// TestSessionZeroValueAsksForNothing: a zero Session starts with no
// recorder and no journal.
func TestSessionZeroValueAsksForNothing(t *testing.T) {
	obs := &Session{}
	if err := obs.Start(); err != nil {
		t.Fatal(err)
	}
	if obs.Recorder != nil || obs.Journal != nil {
		t.Fatalf("zero Session started %+v", obs)
	}
	if err := obs.Record(metrics.Result{Algorithm: "NPJ"}); err != nil {
		t.Fatal(err)
	}
	if err := obs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionSamplesOnlyForAJournal: the journal is the only reader of the
// runtime, so a session without a journal sink has no writer to read it,
// and a record through either sink carries a sample read as it was
// written.
func TestSessionSamplesOnlyForAJournal(t *testing.T) {
	dir := t.TempDir()
	stdoutPath := filepath.Join(dir, "stdout.jsonl")
	stdoutFile, err := os.Create(stdoutPath)
	if err != nil {
		t.Fatal(err)
	}
	defer stdoutFile.Close()
	stdout := os.Stdout
	os.Stdout = stdoutFile // the stdout sink's records land in a file
	defer func() { os.Stdout = stdout }()
	for _, c := range []struct {
		name, path string
		obs        Session
	}{
		{"no journal", "", Session{TracePath: filepath.Join(dir, "trace.json")}},
		{"journal file", filepath.Join(dir, "runs.jsonl"), Session{JournalPath: filepath.Join(dir, "runs.jsonl")}},
		{"stdout", stdoutPath, Session{Stdout: true}},
	} {
		obs := c.obs
		if err := obs.Start(); err != nil {
			t.Fatal(err)
		}
		if got := obs.Journal != nil; got != (c.path != "") {
			t.Errorf("%s: journal writer %v, want %v", c.name, got, c.path != "")
		}
		if err := obs.Record(metrics.Result{Algorithm: "NPJ"}); err != nil {
			t.Fatal(err)
		}
		if err := obs.Close(); err != nil {
			t.Fatal(err)
		}
		if c.path == "" {
			continue
		}
		f, err := os.Open(c.path)
		if err != nil {
			t.Fatal(err)
		}
		j, err := ReadJournal(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(j.Runs) != 1 || j.Runs[0].Runtime == nil || j.Runs[0].Runtime.Goroutines < 1 {
			t.Errorf("%s: want one run carrying a runtime sample, read %+v", c.name, j.Runs)
		}
	}
}
