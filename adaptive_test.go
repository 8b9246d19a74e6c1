package iawj

import "testing"

func TestAdaptiveCorrectness(t *testing.T) {
	// Whatever the tree picks, the adaptive dispatcher must compute the
	// exact join.
	w := MicroStatic(5000, 5000, 8, 0.3, 19)
	want := ExpectedMatches(w.R, w.S)
	res, err := Join(w.R, w.S, Config{Algorithm: AdaptiveName, Threads: 3, AtRest: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != want {
		t.Fatalf("matches = %d, want %d", res.Matches, want)
	}
	// The result must report the concrete algorithm it dispatched to.
	if res.Algorithm == AdaptiveName || res.Algorithm == "" {
		t.Fatalf("result must name the dispatched algorithm, got %q", res.Algorithm)
	}
}

func TestAdaptiveDispatchesByWorkload(t *testing.T) {
	// Static high-duplication data (DEBS-like) must land on a lazy
	// sort-based algorithm.
	highDupe := MicroStatic(60000, 60000, 200, 0, 23)
	name, adv := resolveAdaptive(highDupe.R, highDupe.S, Config{AtRest: true, Threads: 8}, 0)
	if name != "MPASS" && name != "MWAY" {
		t.Fatalf("static high-dupe must dispatch to a sort join, got %s (%v)", name, adv.Path)
	}

	// A trickling stream must land on SHJ_JM.
	slow := Micro(MicroConfig{RateR: 50, RateS: 50, WindowMs: 100, Seed: 2})
	name, adv = resolveAdaptive(slow.R, slow.S, Config{WindowMs: 100, Threads: 8}, 0)
	if name != "SHJ_JM" {
		t.Fatalf("low-rate stream must dispatch to SHJ_JM, got %s (%v)", name, adv.Path)
	}
}

func TestAdaptiveStreaming(t *testing.T) {
	w := Micro(MicroConfig{RateR: 100, RateS: 100, WindowMs: 50, Dupe: 4, Seed: 29})
	want := ExpectedMatches(w.R, w.S)
	res, err := Join(w.R, w.S, Config{
		Algorithm:  AdaptiveName,
		Threads:    2,
		WindowMs:   w.WindowMs,
		NsPerSimMs: 2000,
		Objective:  OptLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != want {
		t.Fatalf("matches = %d, want %d", res.Matches, want)
	}
}

func TestAdaptiveEmptyInputs(t *testing.T) {
	res, err := Join(nil, nil, Config{Algorithm: AdaptiveName, AtRest: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 0 {
		t.Fatalf("matches = %d", res.Matches)
	}
}
