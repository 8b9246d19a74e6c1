package oracle

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tuple"
)

// mutant is a deliberately broken join kernel: a nested loop with one
// seeded defect. The conformance acceptance bar is that the fingerprint
// check catches every mutation mode — including the payload swap, which
// preserves cardinality and so would slip past a count-only test.
type mutant struct{ mode string }

func (m mutant) Name() string { return "MUTANT_" + m.mode }
func (m mutant) Run(ctx *core.ExecContext) error {
	sink := core.NewSink(ctx, 0)
	ctx.Begin(0, metrics.PhaseProbe)
	injected := false
	for _, rt := range ctx.R {
		for _, st := range ctx.S {
			if rt.Key != st.Key {
				continue
			}
			// The swap defect is only visible on a pair whose payloads
			// differ; injecting it on a palindromic pair would be a no-op.
			if !injected && (m.mode != "swap" || rt.Payload != st.Payload) {
				injected = true
				switch m.mode {
				case "drop":
					continue // lose one match
				case "dup":
					sink.Match(rt, st) // emit one match twice
				case "swap":
					// cross the payloads of one pair
					sink.Match(tuple.Tuple{TS: rt.TS, Key: rt.Key, Payload: st.Payload},
						tuple.Tuple{TS: st.TS, Key: st.Key, Payload: rt.Payload})
					continue
				}
			}
			sink.Match(rt, st)
		}
	}
	sink.Close()
	ctx.EndPhase(0)
	return nil
}

func runMutant(t *testing.T, mode string, r, s tuple.Relation) Digest {
	t.Helper()
	sink := NewSink()
	_, err := core.Run(mutant{mode: mode}, r, s, 0, core.RunConfig{
		Threads: 1, AtRest: true, Emit: sink.Emit,
	})
	if err != nil {
		t.Fatalf("mutant %s: %v", mode, err)
	}
	return sink.Digest()
}

func TestMutationsCaughtByFingerprint(t *testing.T) {
	w, err := BuildWorkload(WHighDup, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(w.R, w.S)

	// The un-mutated nested loop must pass: the oracle agrees with an
	// independent correct implementation.
	if got := runMutant(t, "none", w.R, w.S); !got.Full.Equal(want.Full) {
		t.Fatalf("correct kernel flagged: got %s, want %s", got.Full, want.Full)
	}

	for _, mode := range []string{"drop", "dup", "swap"} {
		got := runMutant(t, mode, w.R, w.S)
		if got.Full.Equal(want.Full) {
			t.Fatalf("mutation %q not caught by the fingerprint", mode)
		}
		if mode == "swap" && got.Full.Count != want.Full.Count {
			t.Fatalf("swap mutation must preserve cardinality (got %d, want %d) — it exists to prove the fingerprint sees past counts", got.Full.Count, want.Full.Count)
		}
	}
}

func TestRunCaseConformsAcrossAlgorithmsAndWorkloads(t *testing.T) {
	// A thin differential slice as a tier-1 test; the full sweep lives in
	// the iawjconform smoke/full matrix (scripts/check.sh).
	for _, wl := range []string{WMicro, WEmpty, WBoundary} {
		for _, alg := range []string{"NPJ", "PRJ", "MWAY", "MPASS", "SHJ_JM", "SHJ_JB", "PMJ_JM", "PMJ_JB"} {
			c := Case{Algorithm: alg, Workload: wl, Threads: 2, Seed: 3, Pooled: true}
			if _, err := RunCase(c); err != nil {
				t.Fatalf("%v", err)
			}
		}
	}
}

func TestRunCaseAppliesJitterAndPerturbation(t *testing.T) {
	c := Case{Algorithm: "SHJ_JM", Workload: WBoundary, Threads: 3, Seed: 9,
		Pooled: true, BatchSize: 1, JitterMs: 2, Perturb: true}
	o, err := RunCase(c)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if o.Got.Full.Count == 0 {
		t.Fatal("boundary workload must produce matches")
	}
	// Jitter moves timestamps, so the jittered ground truth must differ
	// from the unjittered one while the run still conforms to it.
	w, _ := BuildWorkload(WBoundary, 9)
	if plain := Reference(w.R, w.S); plain.Full.Equal(o.Want.Full) {
		t.Fatal("jitter was inert: jittered oracle equals unjittered oracle")
	}
}

func TestRunCaseErrorEmbedsReplaySeed(t *testing.T) {
	c := Case{Algorithm: "NO_SUCH", Workload: WMicro, Threads: 1, Seed: 1}
	_, err := RunCase(c)
	if err == nil {
		t.Fatal("unknown algorithm must fail")
	}
	if !strings.Contains(err.Error(), c.String()) {
		t.Fatalf("failure %q must embed the replay seed %q", err, c.String())
	}
	if _, err := RunCase(Case{Algorithm: "NPJ", Workload: "nope", Threads: 1, Seed: 1}); err == nil {
		t.Fatal("unknown workload must fail")
	}
}

func TestBuildWorkloadDeterministicAndComplete(t *testing.T) {
	for _, name := range Workloads() {
		a, err := BuildWorkload(name, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := BuildWorkload(name, 7)
		if Reference(a.R, a.S) != Reference(b.R, b.S) {
			t.Fatalf("%s: same seed produced different workloads", name)
		}
		if !a.R.SortedByTS() || !a.S.SortedByTS() {
			t.Fatalf("%s: workload must be time ordered", name)
		}
	}
	// The empty shape must cover all three emptiness variants.
	shapes := map[string]bool{}
	for seed := uint64(0); seed < 3; seed++ {
		w, _ := BuildWorkload(WEmpty, seed)
		switch {
		case len(w.R) == 0 && len(w.S) == 0:
			shapes["both"] = true
		case len(w.R) == 0:
			shapes["r"] = true
		case len(w.S) == 0:
			shapes["s"] = true
		}
	}
	if len(shapes) != 3 {
		t.Fatalf("empty workload variants covered: %v, want both/r/s", shapes)
	}
}

func TestMatrixCasesSkipInertLazyBatches(t *testing.T) {
	m := SmokeMatrix()
	cases := m.Cases()
	if len(cases) == 0 {
		t.Fatal("smoke matrix is empty")
	}
	full := FullMatrix().Cases()
	if len(full) <= len(cases) {
		t.Fatalf("full matrix (%d) must exceed the smoke subset (%d)", len(full), len(cases))
	}
	for _, c := range full {
		if !eagerPull(c.Algorithm) && c.BatchSize != full[0].BatchSize && c.BatchSize != 0 {
			t.Fatalf("lazy algorithm %s got a batch variant: %+v", c.Algorithm, c)
		}
	}
	// Every algorithm and every workload appears in the smoke subset.
	algos, wls := map[string]bool{}, map[string]bool{}
	for _, c := range cases {
		algos[c.Algorithm] = true
		wls[c.Workload] = true
	}
	if len(algos) != 8 || len(wls) != len(Workloads()) {
		t.Fatalf("smoke coverage: %d algorithms, %d workloads", len(algos), len(wls))
	}
}
