package metrics

import "testing"

// sums adds up spans per phase.
func sums(spans []Span) (ns, tuples [numPhases]int64) {
	for _, s := range spans {
		for p := range ns {
			ns[p] += s.Ns[p]
			tuples[p] += s.Tuples[p]
		}
	}
	return ns, tuples
}

// TestRingCoarsensInsteadOfDropping: a ring far too small for what it is
// given keeps every nanosecond and tuple, its spans stay in time order and
// cover the first stretch's start to the last one's end.
func TestRingCoarsensInsteadOfDropping(t *testing.T) {
	for _, capacity := range []int{2, 3, 4, 64} {
		r := NewRing(capacity)
		r.run = 1
		var wantNs, wantTuples [numPhases]int64
		at := int64(1001)
		for i := int64(0); i < 1000; i++ {
			p := Phase(i * 7 % int64(numPhases))
			d := 13 + i%17
			r.add(p, at, at+d, i%5)
			wantNs[p] += d
			wantTuples[p] += i % 5
			at += d + i%3 // an eager worker's unbooked gap between stretches
		}
		spans := r.Spans()
		if len(spans) > capacity {
			t.Fatalf("capacity %d: %d spans", capacity, len(spans))
		}
		if ns, tuples := sums(spans); ns != wantNs || tuples != wantTuples {
			t.Errorf("capacity %d: spans add up to %v ns and %v tuples, booked %v and %v", capacity, ns, tuples, wantNs, wantTuples)
		}
		if spans[0].StartNs != 1001 || spans[len(spans)-1].EndNs != at-999%3 {
			t.Errorf("capacity %d: spans cover [%d, %d), want [1001, %d)", capacity, spans[0].StartNs, spans[len(spans)-1].EndNs, at-999%3)
		}
		for i, s := range spans {
			if s.Alg != 1 {
				t.Errorf("capacity %d: span %d is of run %d, want 1", capacity, i, s.Alg)
			}
			if i > 0 && s.StartNs < spans[i-1].EndNs {
				t.Errorf("capacity %d: span %d starts at %d, before span %d ends at %d", capacity, i, s.StartNs, i-1, spans[i-1].EndNs)
			}
		}
	}
}

// TestRingKeepsRunsApart: coarsening merges no spans of different runs
// while two neighbours share one, so each run's spans still add up to
// what it booked; a ring with fewer slots than runs merges the oldest two
// into run 0 and still loses nothing.
func TestRingKeepsRunsApart(t *testing.T) {
	book := func(capacity int, runs int32) (perRun map[int32]int64, total int64, r *Ring) {
		r = NewRing(capacity)
		perRun = map[int32]int64{}
		at := int64(0)
		for run := int32(1); run <= runs; run++ {
			r.run, r.left = run, 0
			for i := int64(0); i < 40; i++ {
				d := 3 + i%5 + int64(run)
				r.add(PhaseProbe, at, at+d, 1)
				perRun[run] += d
				total += d
				at += d
			}
		}
		return perRun, total, r
	}

	want, _, r := book(16, 3)
	got := map[int32]int64{}
	for _, s := range r.Spans() {
		got[s.Alg] += s.Ns[PhaseProbe]
	}
	for run, ns := range want {
		if got[run] != ns {
			t.Errorf("run %d: spans hold %d ns, it booked %d", run, got[run], ns)
		}
	}
	if got[0] != 0 {
		t.Errorf("%d ns tagged run 0 although every run had a neighbour of its own", got[0])
	}

	_, total, r := book(2, 5)
	var sum int64
	for _, s := range r.Spans() {
		sum += s.Ns[PhaseProbe]
	}
	if sum != total {
		t.Errorf("two slots for five runs: spans hold %d ns, booked %d", sum, total)
	}
	if spans := r.Spans(); spans[0].Alg != 0 {
		t.Errorf("the oldest span of a ring with fewer slots than runs is run %d, want 0", spans[0].Alg)
	}
}

// TestPhaseNsEqualsRingSums: a traced worker's ring, however small, adds
// up to the worker's phase times per phase, exactly — lazy phase changes
// (Begin after Begin) and eager stretches (Begin, End) alike.
func TestPhaseNsEqualsRingSums(t *testing.T) {
	for _, capacity := range []int{2, 3, 64} {
		c := NewCollector(1)
		tm := c.T(0)
		r := NewRing(capacity)
		tm.Trace(r, 1)
		for i := 0; i < 500; i++ {
			tm.Begin(Phase(i % int(numPhases)))
			tm.AddTuples(int64(i))
			if i%3 == 0 {
				tm.End()
			}
		}
		res := c.Snapshot("x", 1, 1)
		ns, tuples := sums(r.Spans())
		if ns != res.PhaseNs {
			t.Errorf("capacity %d: ring holds %v ns, PhaseNs %v", capacity, ns, res.PhaseNs)
		}
		var n int64
		for _, v := range tuples {
			n += v
		}
		if n != 499*500/2 {
			t.Errorf("capacity %d: ring holds %d tuples, want %d", capacity, n, 499*500/2)
		}
	}
}
