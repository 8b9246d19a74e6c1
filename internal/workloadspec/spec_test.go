package workloadspec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
)

// TestValidateRejects enumerates the structural errors Validate must catch;
// each bad spec is a mutation of a known-good baseline so a rejection can
// only come from the mutated field.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		errFrag string
	}{
		{"bad version", func(s *Spec) { s.Version = 99 }, "version"},
		{"no name", func(s *Spec) { s.Name = "" }, "name"},
		{"no clients or preset", func(s *Spec) { s.Clients = nil }, "neither clients nor a preset"},
		{"both preset and clients", func(s *Spec) { s.Preset = &Preset{Name: "Stock", Scale: 1} }, "both preset and clients"},
		{"no window", func(s *Spec) { s.WindowMs = 0 }, "window_ms"},
		{"duration shorter than window", func(s *Spec) { s.DurationMs = 100 }, "shorter than window_ms"},
		{"no rates", func(s *Spec) { s.RateR, s.RateS = 0, 0 }, "rate_r or rate_s"},
		{"fractions off", func(s *Spec) { s.Clients[0].RateFraction = 0.7 }, "sum to"},
		{"fraction out of range", func(s *Spec) {
			s.Clients[0].RateFraction = 1.6
			s.Clients[1].RateFraction = -0.6
		}, "outside (0, 1]"},
		{"duplicate client id", func(s *Spec) { s.Clients[1].ID = s.Clients[0].ID }, "duplicate client id"},
		{"empty client id", func(s *Spec) { s.Clients[0].ID = "" }, "needs an id"},
		{"bad stream", func(s *Spec) { s.Clients[0].Stream = "T" }, "stream"},
		{"unknown arrival", func(s *Spec) { s.Clients[0].Arrival.Process = "weibull" }, "arrival process"},
		{"trace without journal", func(s *Spec) { s.Clients[0].Arrival = ArrivalSpec{Process: ProcTrace} }, "journal path"},
		{"unknown key dist", func(s *Spec) { s.Clients[0].Keys.Dist = "pareto" }, "key distribution"},
		{"zero key domain", func(s *Spec) { s.Clients[0].Keys.Domain = 0 }, "domain"},
		{"negative theta", func(s *Spec) { s.Clients[0].Keys = KeySpec{Dist: KeysZipf, Domain: 8, Theta: -1} }, "theta"},
		{"hot frac out of range", func(s *Spec) { s.Clients[0].Keys = KeySpec{Dist: KeysHotset, Domain: 8, HotFrac: 1.5} }, "hot_frac"},
		{"payload max below min", func(s *Spec) {
			s.Clients[0].Payload = &PayloadSpec{Kind: PayloadUniform, Min: 5, Max: 1}
		}, "payload max"},
		{"unknown payload kind", func(s *Spec) { s.Clients[0].Payload = &PayloadSpec{Kind: "blob"} }, "payload kind"},
		{"preset bad name", func(s *Spec) {
			s.Clients = nil
			s.Preset = &Preset{Name: "NEXMark", Scale: 1}
		}, "not a paper workload"},
		{"preset zero scale", func(s *Spec) {
			s.Clients = nil
			s.Preset = &Preset{Name: "Stock", Scale: 0}
		}, "positive scale"},
	}
	for _, tc := range cases {
		sp := propertySpec(1)
		tc.mutate(sp)
		err := sp.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the bad spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errFrag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errFrag)
		}
	}
	if err := propertySpec(1).Validate(); err != nil {
		t.Fatalf("baseline spec must validate: %v", err)
	}
}

// TestParseRejectsUnknownFields: a typo'd knob must fail loudly, not
// silently compile defaults.
func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"version":1,"name":"x","windowms":100}`)); err == nil {
		t.Fatal("Parse accepted an unknown field")
	}
}

// TestPresetDigestEquality is the reproduction contract for the four paper
// workloads: a preset spec must compile byte-identically to its gen.*
// generator at the same seed and scale, so results driven from checked-in
// specs are directly comparable to the named workloads.
func TestPresetDigestEquality(t *testing.T) {
	for _, name := range []string{"Stock", "Rovio", "YSB", "DEBS"} {
		sp := &Spec{
			Version: SpecVersion, Name: strings.ToLower(name), Seed: 42,
			Preset: &Preset{Name: name, Scale: 0.02},
		}
		c, err := Compile(sp, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w, err := gen.ByName(name, gen.Scale(0.02), 42)
		if err != nil {
			t.Fatalf("%s: gen.ByName: %v", name, err)
		}
		if len(c.R) != len(w.R) || len(c.S) != len(w.S) {
			t.Fatalf("%s: sizes differ: spec %d/%d vs gen %d/%d", name, len(c.R), len(c.S), len(w.R), len(w.S))
		}
		for i := range w.R {
			if c.R[i] != w.R[i] {
				t.Fatalf("%s: R[%d] differs: %+v vs %+v", name, i, c.R[i], w.R[i])
			}
		}
		for i := range w.S {
			if c.S[i] != w.S[i] {
				t.Fatalf("%s: S[%d] differs: %+v vs %+v", name, i, c.S[i], w.S[i])
			}
		}
		if c.WindowMs != w.WindowMs {
			t.Fatalf("%s: window %d vs %d", name, c.WindowMs, w.WindowMs)
		}
	}
}

// TestTraceReplayDeterministic: a spec with a trace-replay client must
// compile identically whether the journal arrives pre-parsed or from disk.
func TestTraceReplayDeterministic(t *testing.T) {
	sp := func() *Spec {
		return &Spec{
			Version: SpecVersion, Name: "replay", Seed: 7,
			WindowMs: 250, DurationMs: 1000, RateR: 4, RateS: 4,
			Clients: []Client{{
				ID: "replayer", RateFraction: 1,
				Arrival: ArrivalSpec{Process: ProcTrace, Journal: "j"},
				Keys:    KeySpec{Dist: KeysUniform, Domain: 128},
			}},
		}
	}
	j := statJournal()
	a, err := Compile(sp(), Options{Journals: map[string]trace.Journal{"j": j}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(sp(), Options{Journals: map[string]trace.Journal{"j": j}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameWorkload(a, b); err != nil {
		t.Fatalf("trace replay not deterministic: %v", err)
	}

	// From disk: write the journal out and point the spec at the file.
	dir := t.TempDir()
	data := `{"schema":"iawj-journal/v2","kind":"window","window":{"id":0,"start_ms":0,"end_ms":250},"inputs":100}
{"schema":"iawj-journal/v2","kind":"window","window":{"id":1,"start_ms":250,"end_ms":500},"inputs":400}
{"schema":"iawj-journal/v2","kind":"window","window":{"id":2,"start_ms":500,"end_ms":750},"inputs":50}
{"schema":"iawj-journal/v2","kind":"window","window":{"id":3,"start_ms":750,"end_ms":1000},"inputs":250}
`
	if err := os.WriteFile(filepath.Join(dir, "rec.jsonl"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	spFile := sp()
	spFile.Clients[0].Arrival.Journal = "rec.jsonl"
	c, err := Compile(spFile, Options{BaseDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameWorkload(a, c); err != nil {
		t.Fatalf("file-loaded journal compiles differently from in-memory journal: %v", err)
	}
}

// TestCheckedInSpecs compiles every spec under examples/specs — the same
// files the spec-smoke stage inspects and joins — so a broken example
// fails in-tree before it fails in CI.
func TestCheckedInSpecs(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "specs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("examples/specs: %v", err)
	}
	var n int
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		n++
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Parse(data)
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		c, err := Compile(sp, Options{BaseDir: dir})
		if err != nil {
			t.Errorf("%s: compile: %v", e.Name(), err)
			continue
		}
		if len(c.R) == 0 && len(c.S) == 0 {
			t.Errorf("%s: compiled to an empty workload", e.Name())
		}
	}
	if n < 5 {
		t.Fatalf("only %d example specs found, want the mixed spec plus the four paper presets", n)
	}
}
