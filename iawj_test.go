package iawj

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// collector is an Emit sink that materializes the join output; Emit is
// never entered concurrently, so it needs no latch.
type collector struct{ out []JoinResult }

func (c *collector) Emit(jr JoinResult) { c.out = append(c.out, jr) }

// Results returns the collected output sorted by (key, ts, payloads), the
// order two runs are compared in.
func (c *collector) Results() []JoinResult {
	out := slices.Clone(c.out)
	slices.SortFunc(out, func(a, b JoinResult) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.TS, b.TS),
			cmp.Compare(a.PayloadR, b.PayloadR), cmp.Compare(a.PayloadS, b.PayloadS))
	})
	return out
}

// allAlgorithms covers the eight studied algorithms.
var allAlgorithms = Algorithms()

// smallWorkload builds a deterministic micro workload with enough key
// collisions to exercise duplicate handling.
func smallWorkload(t testing.TB) Workload {
	t.Helper()
	return Micro(MicroConfig{RateR: 8, RateS: 8, WindowMs: 200, Dupe: 4, Seed: 7})
}

func TestAllAlgorithmsMatchGroundTruth(t *testing.T) {
	w := smallWorkload(t)
	want := ExpectedMatches(w.R, w.S)
	if want == 0 {
		t.Fatalf("degenerate workload: no matches expected")
	}
	for _, name := range allAlgorithms {
		for _, threads := range []int{1, 2, 4} {
			name, threads := name, threads
			t.Run(fmt.Sprintf("%s/threads=%d", name, threads), func(t *testing.T) {
				t.Parallel()
				res, err := Join(w.R, w.S, Config{
					Algorithm:  name,
					Threads:    threads,
					WindowMs:   w.WindowMs,
					NsPerSimMs: 1000, // fast simulation: 1 sim-ms = 1µs
				})
				if err != nil {
					t.Fatalf("Join: %v", err)
				}
				if res.Matches != want {
					t.Fatalf("matches = %d, want %d", res.Matches, want)
				}
			})
		}
	}
}

func TestAllAlgorithmsAtRest(t *testing.T) {
	w := MicroStatic(4000, 4000, 8, 0, 21)
	want := ExpectedMatches(w.R, w.S)
	for _, name := range allAlgorithms {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Join(w.R, w.S, Config{Algorithm: name, Threads: 4, AtRest: true})
			if err != nil {
				t.Fatalf("Join: %v", err)
			}
			if res.Matches != want {
				t.Fatalf("matches = %d, want %d", res.Matches, want)
			}
		})
	}
}

func TestHandshakeBaselineMatches(t *testing.T) {
	w := MicroStatic(500, 500, 4, 0, 3)
	want := ExpectedMatches(w.R, w.S)
	res, err := Join(w.R, w.S, Config{Algorithm: "HANDSHAKE", Threads: 4, AtRest: true})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if res.Matches != want {
		t.Fatalf("matches = %d, want %d", res.Matches, want)
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	// NPJ_LF named the retired lock-free build-table ablation.
	for _, name := range []string{"NOPE", "NPJ_LF"} {
		if _, err := Join(nil, nil, Config{Algorithm: name}); err == nil {
			t.Fatalf("expected error for unknown algorithm %q", name)
		}
		if _, err := NewAlgorithm(name); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Fatalf("NewAlgorithm(%q) = %v, want the unknown-algorithm error", name, err)
		}
	}
}

func TestEmitMaterializesResults(t *testing.T) {
	w := MicroStatic(300, 300, 3, 0, 5)
	want := ExpectedMatches(w.R, w.S)
	for _, name := range []string{"NPJ", "MPASS", "SHJ_JM", "PMJ_JB"} {
		name := name
		t.Run(name, func(t *testing.T) {
			col := &collector{}
			res, err := Join(w.R, w.S, Config{Algorithm: name, Threads: 2, AtRest: true, Emit: col.Emit})
			if err != nil {
				t.Fatalf("Join: %v", err)
			}
			got := col.Results()
			if int64(len(got)) != want || res.Matches != want {
				t.Fatalf("materialized %d, counted %d, want %d", len(got), res.Matches, want)
			}
			for _, jr := range got[:min(10, len(got))] {
				if jr.TS < 0 {
					t.Fatalf("bad result timestamp: %+v", jr)
				}
			}
		})
	}
}

// TestEmitOutputsIdenticalAcrossAlgorithms cross-checks that two very
// different implementations (shared-hash lazy vs sort-based eager)
// materialize exactly the same result multiset.
func TestEmitOutputsIdenticalAcrossAlgorithms(t *testing.T) {
	w := MicroStatic(400, 400, 5, 0.4, 11)
	ref := &collector{}
	if _, err := Join(w.R, w.S, Config{Algorithm: "NPJ", Threads: 2, AtRest: true, Emit: ref.Emit}); err != nil {
		t.Fatal(err)
	}
	refOut := ref.Results()
	for _, name := range []string{"PRJ", "MWAY", "SHJ_JB", "PMJ_JM"} {
		col := &collector{}
		if _, err := Join(w.R, w.S, Config{Algorithm: name, Threads: 3, AtRest: true, Emit: col.Emit}); err != nil {
			t.Fatal(err)
		}
		got := col.Results()
		if len(got) != len(refOut) {
			t.Fatalf("%s: %d results, want %d", name, len(got), len(refOut))
		}
		for i := range got {
			if got[i] != refOut[i] {
				t.Fatalf("%s: result %d = %+v, want %+v", name, i, got[i], refOut[i])
			}
		}
	}
}
