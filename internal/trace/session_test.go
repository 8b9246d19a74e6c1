package trace

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestSessionAppendsAndSamples: two sessions on one journal path leave one
// journal of two runs (opened for append; readers keep the first header),
// each record carrying a runtime sample although no sampling interval
// ever elapsed, and Close leaves a readable trace file.
func TestSessionAppendsAndSamples(t *testing.T) {
	dir := t.TempDir()
	journal, tracePath := filepath.Join(dir, "runs.jsonl"), filepath.Join(dir, "trace.json")
	for _, alg := range []string{"NPJ", "SHJ_JM"} {
		obs := &Session{JournalPath: journal, TracePath: tracePath, SampleEvery: time.Hour, WantPool: true}
		if err := obs.Start(); err != nil {
			t.Fatal(err)
		}
		if obs.Recorder == nil || obs.Journal == nil || obs.Pool == nil {
			t.Fatalf("Start left out a part that was asked for: %+v", obs)
		}
		obs.Recorder.StartRun(alg)
		obs.Recorder.T(0).Record(int(metrics.PhaseProbe), 0, 1000, 10)
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

func TestSessionZeroValueAsksForNothing(t *testing.T) {
	obs := &Session{}
	if err := obs.Start(); err != nil {
		t.Fatal(err)
	}
	if obs.Recorder != nil || obs.Journal != nil || obs.Pool != nil {
		t.Fatalf("zero Session started %+v", obs)
	}
	if err := obs.Record(metrics.Result{Algorithm: "NPJ"}); err != nil {
		t.Fatal(err)
	}
	if err := obs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionSamplesOnlyForAJournal: the journal is the sampler's only
// reader, so a sampling interval without a journal sink starts no
// sampling goroutine, and one with either sink does.
func TestSessionSamplesOnlyForAJournal(t *testing.T) {
	dir := t.TempDir()
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	stdout := os.Stdout
	os.Stdout = devNull // the stdout sink's header goes nowhere
	defer func() { os.Stdout = stdout }()
	for _, c := range []struct {
		name string
		obs  Session
		want bool
	}{
		{"no journal", Session{TracePath: filepath.Join(dir, "trace.json")}, false},
		{"journal file", Session{JournalPath: filepath.Join(dir, "runs.jsonl")}, true},
		{"stdout", Session{Stdout: true}, true},
	} {
		obs := c.obs
		obs.SampleEvery = time.Hour
		if err := obs.Start(); err != nil {
			t.Fatal(err)
		}
		if got := obs.sampler != nil; got != c.want {
			t.Errorf("%s: sampler started %v, want %v", c.name, got, c.want)
		}
		if err := obs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
