package iawj

import (
	"bytes"
	"testing"

	"repro/internal/hashtable"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// tumbledGroundTruth computes per-window match counts by brute force.
func tumbledGroundTruth(r, s Relation, w int64) map[int64]int64 {
	byWin := map[int64]map[int32]int64{}
	for _, x := range r {
		win := x.TS / w
		if byWin[win] == nil {
			byWin[win] = map[int32]int64{}
		}
		byWin[win][x.Key]++
	}
	out := map[int64]int64{}
	for _, x := range s {
		win := x.TS / w
		out[win*w] += byWin[win][x.Key]
	}
	return out
}

func TestJoinWindowedTumbling(t *testing.T) {
	// A long stream spanning several windows.
	w := Micro(MicroConfig{RateR: 40, RateS: 40, WindowMs: 400, Dupe: 4, Seed: 41})
	const winLen = 100
	want := tumbledGroundTruth(w.R, w.S, winLen)
	results, err := JoinWindowed(w.R, w.S, WindowSpec{Kind: Tumbling, LengthMs: winLen}, Config{
		Algorithm: "NPJ", Threads: 2, AtRest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no windows produced")
	}
	var total int64
	for _, wr := range results {
		if wr.Result.Matches != want[wr.Start] {
			t.Fatalf("window %d: matches = %d, want %d", wr.Start, wr.Result.Matches, want[wr.Start])
		}
		total += wr.Result.Matches
	}
	if total != TotalMatches(results) {
		t.Fatal("TotalMatches disagrees")
	}
	var wantTotal int64
	for _, n := range want {
		wantTotal += n
	}
	if total != wantTotal {
		t.Fatalf("total = %d, want %d", total, wantTotal)
	}
}

func TestJoinWindowedAcrossAlgorithms(t *testing.T) {
	w := Micro(MicroConfig{RateR: 30, RateS: 30, WindowMs: 300, Dupe: 6, Seed: 43})
	spec := WindowSpec{Kind: Tumbling, LengthMs: 100}
	ref, err := JoinWindowed(w.R, w.S, spec, Config{Algorithm: "NPJ", Threads: 2, AtRest: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"PRJ", "MPASS", "SHJ_JM", "PMJ_JB"} {
		got, err := JoinWindowed(w.R, w.S, spec, Config{Algorithm: algo, Threads: 2, AtRest: true})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if TotalMatches(got) != TotalMatches(ref) {
			t.Fatalf("%s: total = %d, want %d", algo, TotalMatches(got), TotalMatches(ref))
		}
	}
}

func TestJoinWindowedSession(t *testing.T) {
	// Two bursts separated by silence: two session windows.
	r := Relation{{TS: 0, Key: 1}, {TS: 1, Key: 2}, {TS: 50, Key: 3}}
	s := Relation{{TS: 1, Key: 1}, {TS: 51, Key: 3}, {TS: 52, Key: 3}}
	results, err := JoinWindowed(r, s, WindowSpec{Kind: Session, GapMs: 10}, Config{
		Algorithm: "SHJ_JM", Threads: 1, AtRest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if TotalMatches(results) != 3 {
		t.Fatalf("total = %d, want 3 (1 in burst one, 2 in burst two)", TotalMatches(results))
	}
}

func TestJoinWindowedSliding(t *testing.T) {
	r := Relation{{TS: 0, Key: 1}, {TS: 7, Key: 2}}
	s := Relation{{TS: 8, Key: 2}, {TS: 12, Key: 2}}
	// Windows [0,10) and [5,15): key 2 pairs (7,8) in both windows and
	// (7,12) in the second.
	results, err := JoinWindowed(r, s, WindowSpec{Kind: Sliding, LengthMs: 10, SlideMs: 5}, Config{
		Algorithm: "NPJ", Threads: 1, AtRest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if TotalMatches(results) != 3 {
		t.Fatalf("total = %d, want 3", TotalMatches(results))
	}
}

func TestJoinWindowedBadSpec(t *testing.T) {
	if _, err := JoinWindowed(nil, nil, WindowSpec{Kind: Tumbling}, Config{Algorithm: "NPJ"}); err == nil {
		t.Fatal("invalid spec must error")
	}
}

func TestJoinWindowedOneSidedWindows(t *testing.T) {
	r := Relation{{TS: 0, Key: 1}}
	s := Relation{{TS: 100, Key: 1}}
	results, err := JoinWindowed(r, s, WindowSpec{Kind: Tumbling, LengthMs: 10}, Config{
		Algorithm: "NPJ", Threads: 1, AtRest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if TotalMatches(results) != 0 {
		t.Fatal("tuples in different windows must not match")
	}
	if len(results) != 2 {
		t.Fatalf("windows = %d, want 2 one-sided windows", len(results))
	}
}

func TestJoinWindowedParallelMatchesSequential(t *testing.T) {
	w := Micro(MicroConfig{RateR: 40, RateS: 40, WindowMs: 400, Dupe: 4, Seed: 47})
	spec := WindowSpec{Kind: Tumbling, LengthMs: 50}
	seq, err := JoinWindowed(w.R, w.S, spec, Config{Algorithm: "NPJ", Threads: 1, AtRest: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := JoinWindowedParallel(w.R, w.S, spec, Config{Algorithm: "NPJ", Threads: 1, AtRest: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("window counts: %d vs %d", len(par), len(seq))
	}
	for i := range par {
		if par[i].Start != seq[i].Start || par[i].Result.Matches != seq[i].Result.Matches {
			t.Fatalf("window %d diverges: %+v vs %+v", i, par[i], seq[i])
		}
	}
	// workers <= 1 falls through to the sequential path.
	one, err := JoinWindowedParallel(w.R, w.S, spec, Config{Algorithm: "NPJ", Threads: 1, AtRest: true}, 1)
	if err != nil || TotalMatches(one) != TotalMatches(seq) {
		t.Fatalf("workers=1: %v %d vs %d", err, TotalMatches(one), TotalMatches(seq))
	}
}

// TestParallelWindowsRecycleCollectors: three windows in flight on one
// pool hand each other's metrics collectors on (run under -race by the
// gate), every window still books exactly its own matches, and the pool
// never builds more collectors than there were windows in flight.
func TestParallelWindowsRecycleCollectors(t *testing.T) {
	w := Micro(MicroConfig{RateR: 40, RateS: 40, WindowMs: 600, Dupe: 4, Seed: 47})
	spec := WindowSpec{Kind: Sliding, LengthMs: 100, SlideMs: 50}
	for _, alg := range append(Algorithms(), AdaptiveName) {
		seq, err := JoinWindowed(w.R, w.S, spec, Config{Algorithm: alg, Threads: 2, AtRest: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Algorithm: alg, Threads: 2, AtRest: true, Pool: NewStatePool()}
		runs := 0
		for sweep := 0; sweep < 2; sweep++ {
			par, err := JoinWindowedParallel(w.R, w.S, spec, cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(seq) {
				t.Fatalf("%s: %d windows in parallel, %d in sequence", alg, len(par), len(seq))
			}
			for i := range par {
				if par[i].Result.Matches != seq[i].Result.Matches || par[i].Result.Inputs != seq[i].Result.Inputs {
					t.Fatalf("%s sweep %d window %d: %d matches of %d inputs on a shared pool, %d of %d alone",
						alg, sweep, i, par[i].Result.Matches, par[i].Result.Inputs, seq[i].Result.Matches, seq[i].Result.Inputs)
				}
				if par[i].Result.Algorithm != "" {
					runs++
				}
			}
		}
		st := cfg.Pool.Stats()
		hits, misses := st.Hits[metrics.PoolCollector], st.Misses[metrics.PoolCollector]
		if misses < 1 || misses > 3 || hits+misses != int64(runs) {
			t.Errorf("%s: %d runs, three at a time, took %d collectors from the pool and built %d", alg, runs, hits, misses)
		}
	}
}

func TestJoinWindowedParallelPropagatesErrors(t *testing.T) {
	r := Relation{{TS: 0, Key: 1}, {TS: 60, Key: 2}}
	s := Relation{{TS: 1, Key: 1}, {TS: 61, Key: 2}}
	_, err := JoinWindowedParallel(r, s, WindowSpec{Kind: Tumbling, LengthMs: 50}, Config{Algorithm: "NOPE"}, 2)
	if err == nil {
		t.Fatal("bad algorithm must surface an error")
	}
}

// TestJoinWindowedJournalRoundTrip drives a windowed join with a journal
// attached and parses the emitted ledger back: one valid v2 window record
// per joined window, carrying the window identity and the join metrics.
func TestJoinWindowedJournalRoundTrip(t *testing.T) {
	w := Micro(MicroConfig{RateR: 40, RateS: 40, WindowMs: 400, Dupe: 4, Seed: 41})
	const winLen = 100

	var buf bytes.Buffer
	jw := NewJournalWriter(&buf)
	statePool := NewStatePool() // before the header: the first pool calibrates what the header records
	if err := jw.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	results, err := JoinWindowed(w.R, w.S, WindowSpec{Kind: Tumbling, LengthMs: winLen}, Config{
		Algorithm: "SHJ_JM", Threads: 2, AtRest: true, Journal: jw, Pool: statePool,
	})
	if err != nil {
		t.Fatal(err)
	}

	joined := 0
	for _, wr := range results {
		if wr.Result.Algorithm != "" {
			joined++
		}
	}
	if joined == 0 {
		t.Fatal("fixture produced no joined windows")
	}

	j, err := trace.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if j.Env == nil {
		t.Error("journal has no environment header")
	}
	if len(j.Windows) != joined {
		t.Fatalf("journal has %d window records, want %d (one per joined window)", len(j.Windows), joined)
	}
	byID := map[int]trace.JournalEntry{}
	for _, e := range j.Windows {
		byID[e.Window.ID] = e
	}
	for i, wr := range results {
		if wr.Result.Algorithm == "" {
			if _, ok := byID[i]; ok {
				t.Errorf("empty window %d has a journal record", i)
			}
			continue
		}
		e, ok := byID[i]
		if !ok {
			t.Fatalf("window %d missing from journal", i)
		}
		if e.Window.StartMs != wr.Start || e.Window.EndMs != wr.End {
			t.Errorf("window %d bounds = [%d,%d), want [%d,%d)", i, e.Window.StartMs, e.Window.EndMs, wr.Start, wr.End)
		}
		if e.Algorithm != wr.Result.Algorithm || e.Matches != wr.Result.Matches {
			t.Errorf("window %d: journal %s/%d, result %s/%d", i, e.Algorithm, e.Matches, wr.Result.Algorithm, wr.Result.Matches)
		}
	}
	// The ledger says where each window's metrics collector came from —
	// the first window built it, every later one took it from the pool —
	// and the header which probe-prefetch distance the process ran at.
	for n, e := range j.Windows {
		built, reused := e.PoolMisses["collector"], e.PoolHits["collector"]
		if (n == 0 && (built != 1 || reused != 0)) || (n > 0 && (built != 0 || reused != 1)) {
			t.Errorf("window record %d: collector built %d times, reused %d", n, built, reused)
		}
	}
	if j.Env != nil && j.Env.ProbePrefetch != hashtable.ProbePrefetchDistance() {
		t.Errorf("header records probe_prefetch %d, the process runs at %d", j.Env.ProbePrefetch, hashtable.ProbePrefetchDistance())
	}
	// The result side carries the same identity via core.ExecContext.
	for i, wr := range results {
		if wr.Result.Algorithm == "" {
			continue
		}
		if wr.Result.WindowID != i || wr.Result.WindowStartMs != wr.Start || wr.Result.WindowEndMs != wr.End {
			t.Errorf("result %d window tag = %d [%d,%d), want %d [%d,%d)", i,
				wr.Result.WindowID, wr.Result.WindowStartMs, wr.Result.WindowEndMs, i, wr.Start, wr.End)
		}
	}
}

// TestJoinWindowedParallelJournal checks the concurrent driver writes the
// same set of window records (order may interleave, ids must not).
func TestJoinWindowedParallelJournal(t *testing.T) {
	w := Micro(MicroConfig{RateR: 40, RateS: 40, WindowMs: 400, Dupe: 4, Seed: 41})
	var buf bytes.Buffer
	jw := NewJournalWriter(&buf)
	results, err := JoinWindowedParallel(w.R, w.S, WindowSpec{Kind: Tumbling, LengthMs: 100}, Config{
		Algorithm: "NPJ", Threads: 2, AtRest: true, Journal: jw,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	j, err := trace.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, e := range j.Windows {
		if seen[e.Window.ID] {
			t.Errorf("window %d recorded twice", e.Window.ID)
		}
		seen[e.Window.ID] = true
	}
	joined := 0
	for i, wr := range results {
		if wr.Result.Algorithm == "" {
			continue
		}
		joined++
		if !seen[i] {
			t.Errorf("window %d missing from journal", i)
		}
	}
	if len(j.Windows) != joined {
		t.Errorf("journal has %d window records, want %d", len(j.Windows), joined)
	}
}
