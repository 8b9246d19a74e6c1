package eager

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hashtable"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/tuple"
)

func expected(r, s tuple.Relation) int64 {
	freq := map[int32]int64{}
	for _, x := range r {
		freq[x.Key]++
	}
	var n int64
	for _, x := range s {
		n += freq[x.Key]
	}
	return n
}

func staticRun(t *testing.T, alg core.Algorithm, w gen.Workload, threads int, knobs core.Knobs) int64 {
	t.Helper()
	res, err := core.Run(alg, w.R, w.S, w.WindowMs, core.RunConfig{
		Threads: threads, AtRest: true, Knobs: knobs,
	})
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res.Matches
}

// raggedJB are JB configurations whose g does not divide Threads: the
// last group has Threads mod g members.
var raggedJB = [][2]int{{3, 2}, {5, 2}, {6, 4}}

func TestSHJJBGroupSizes(t *testing.T) {
	w := gen.MicroStatic(3000, 3000, 8, 0.3, 17)
	want := expected(w.R, w.S)
	var cases [][2]int
	for _, threads := range []int{2, 4, 8} {
		for _, g := range []int{1, 2, 4} {
			if g <= threads {
				cases = append(cases, [2]int{threads, g})
			}
		}
	}
	for _, c := range append(cases, raggedJB...) {
		threads, g := c[0], c[1]
		t.Run(fmt.Sprintf("threads=%d/g=%d", threads, g), func(t *testing.T) {
			got := staticRun(t, SHJ{JB: true}, w, threads, core.Knobs{GroupSize: g})
			if got != want {
				t.Fatalf("matches = %d, want %d", got, want)
			}
		})
	}
}

// TestJBRaggedGroupsOwnership pins JB's assignment when g does not divide
// Threads: every worker owns tuples, every S tuple is owned exactly once,
// and every R tuple by all the members of exactly one group — the group
// its key routes to, which holds the S tuple's owner too.
func TestJBRaggedGroupsOwnership(t *testing.T) {
	w := gen.MicroStatic(3000, 3000, 2, 0, 7)
	for _, c := range raggedJB {
		threads, g := c[0], c[1]
		t.Run(fmt.Sprintf("threads=%d/g=%d", threads, g), func(t *testing.T) {
			dists := make([]distribution, threads)
			for tid := range dists {
				dists[tid] = newJB(threads, tid, g, len(w.R)+len(w.S), pool.New().U32)
			}
			owned := make([]int, threads)
			owners := func(sd side, i int, x tuple.Tuple) []int {
				var out []int
				for tid := range dists {
					if dists[tid].owns(sd, i, x) {
						out = append(out, tid)
						owned[tid]++
					}
				}
				return out
			}
			for i, x := range w.R {
				rOwners := owners(sideR, i, x)
				if len(rOwners) == 0 {
					t.Fatalf("R tuple %d owned by no worker", i)
				}
				group := rOwners[0] / g
				var members []int
				for tid := group * g; tid < min((group+1)*g, threads); tid++ {
					members = append(members, tid)
				}
				if !slices.Equal(rOwners, members) {
					t.Fatalf("R tuple %d owned by workers %v, want group %d's members %v", i, rOwners, group, members)
				}
			}
			for i, x := range w.S {
				sOwners := owners(sideS, i, x)
				if len(sOwners) != 1 {
					t.Fatalf("S tuple %d owned by workers %v, want exactly one", i, sOwners)
				}
				if want := int(hashtable.Hash(x.Key) % uint32(dists[0].groups)); sOwners[0]/g != want {
					t.Fatalf("S tuple %d owned by worker %d of group %d, its key routes to group %d", i, sOwners[0], sOwners[0]/g, want)
				}
			}
			for tid, n := range owned {
				if n == 0 {
					t.Fatalf("worker %d owns no tuple (owned per worker %v)", tid, owned)
				}
			}
		})
	}
}

func TestSHJGroupSizeTooLarge(t *testing.T) {
	w := gen.MicroStatic(100, 100, 1, 0, 1)
	_, err := core.Run(SHJ{JB: true}, w.R, w.S, 0, core.RunConfig{
		Threads: 2, AtRest: true, Knobs: core.Knobs{GroupSize: 8},
	})
	if err == nil {
		t.Fatal("group size beyond threads must error")
	}
}

func TestPMJGroupSizeTooLarge(t *testing.T) {
	w := gen.MicroStatic(100, 100, 1, 0, 1)
	_, err := core.Run(PMJ{JB: true}, w.R, w.S, 0, core.RunConfig{
		Threads: 2, AtRest: true, Knobs: core.Knobs{GroupSize: 8},
	})
	if err == nil {
		t.Fatal("group size beyond threads must error")
	}
}

func TestPMJSortStepVariationsAgree(t *testing.T) {
	w := gen.MicroStatic(5000, 5000, 10, 0, 23)
	want := expected(w.R, w.S)
	for _, delta := range []float64{0.05, 0.1, 0.2, 0.5, 0.9} {
		for _, jb := range []bool{false, true} {
			got := staticRun(t, PMJ{JB: jb}, w, 3, core.Knobs{SortStepFrac: delta})
			if got != want {
				t.Fatalf("jb=%v δ=%.2f: matches = %d, want %d", jb, delta, got, want)
			}
		}
	}
}

func TestEagerSingleThread(t *testing.T) {
	w := gen.MicroStatic(2000, 2000, 4, 0, 5)
	want := expected(w.R, w.S)
	for _, alg := range []core.Algorithm{SHJ{}, SHJ{JB: true}, PMJ{}, PMJ{JB: true}, Handshake{}} {
		got := staticRun(t, alg, w, 1, core.Knobs{})
		if got != want {
			t.Fatalf("%s single-thread: matches = %d, want %d", alg.Name(), got, want)
		}
	}
}

func TestEagerAsymmetricSizes(t *testing.T) {
	// R tiny, S large (YSB shape) and the reverse.
	for _, sizes := range [][2]int{{50, 5000}, {5000, 50}, {0, 100}, {100, 0}} {
		w := gen.MicroStatic(sizes[0], sizes[1], 3, 0, 7)
		want := expected(w.R, w.S)
		for _, alg := range []core.Algorithm{SHJ{}, PMJ{JB: true}} {
			got := staticRun(t, alg, w, 3, core.Knobs{})
			if got != want {
				t.Fatalf("%s sizes=%v: matches = %d, want %d", alg.Name(), sizes, got, want)
			}
		}
	}
}

func TestEagerStreamingGatedArrival(t *testing.T) {
	// With a streaming clock the eager algorithms must still find every
	// match even though tuples trickle in.
	w := gen.Micro(gen.MicroConfig{RateR: 50, RateS: 50, WindowMs: 50, Dupe: 5, Seed: 3})
	want := expected(w.R, w.S)
	for _, alg := range []core.Algorithm{SHJ{}, SHJ{JB: true}, PMJ{}, PMJ{JB: true}} {
		res, err := core.Run(alg, w.R, w.S, w.WindowMs, core.RunConfig{
			Threads: 2, NsPerSimMs: 5000, // 5µs per simulated ms
		})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if res.Matches != want {
			t.Fatalf("%s streaming: matches = %d, want %d", alg.Name(), res.Matches, want)
		}
		if res.PhaseNs[0] < 0 {
			t.Fatal("wait phase must be non-negative")
		}
	}
}

func TestDistributionOwnership(t *testing.T) {
	// Under either scheme every S tuple is owned by exactly one worker and
	// every R tuple by the workers the scheme names: all of them for JM,
	// the g members of the key's group — the group S's owner is in — for JB.
	const threads = 4
	tuples := make(tuple.Relation, 100)
	for i := range tuples {
		tuples[i] = tuple.Tuple{Key: int32(i * 31 % 17)}
	}
	check := func(t *testing.T, rWant int, dist func(tid int) distribution) {
		dists := make([]distribution, threads)
		for tid := range dists {
			dists[tid] = dist(tid)
		}
		for i, x := range tuples {
			var rOwners, sOwners []int
			for tid := range dists {
				if dists[tid].owns(sideR, i, x) {
					rOwners = append(rOwners, tid)
				}
				if dists[tid].owns(sideS, i, x) {
					sOwners = append(sOwners, tid)
				}
			}
			if len(rOwners) != rWant {
				t.Fatalf("tuple %d: R owned by workers %v, want %d of them", i, rOwners, rWant)
			}
			if len(sOwners) != 1 {
				t.Fatalf("tuple %d: S owned by workers %v, want exactly one", i, sOwners)
			}
			// A key's R and S tuples meet: S's owner also holds R's.
			if !slices.Contains(rOwners, sOwners[0]) {
				t.Fatalf("tuple %d: S owner %v is not among R's owners %v", i, sOwners, rOwners)
			}
		}
	}
	t.Run("JM", func(t *testing.T) {
		check(t, threads, func(tid int) distribution { return newJM(threads, tid) })
	})
	for _, g := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("JB/g=%d", g), func(t *testing.T) {
			check(t, g, func(tid int) distribution { return newJB(threads, tid, g, len(tuples), pool.New().U32) })
		})
	}
}

// recorded returns what a status table holds, key → group.
func (t *statusTable) recorded() map[int32]int32 {
	m := map[int32]int32{}
	for i := 0; i+1 < len(t.cells); i += 2 {
		if t.cells[i+1] != 0 {
			m[int32(t.cells[i])] = int32(t.cells[i+1]) - 1
		}
	}
	return m
}

// statusWrites counts the router-state accesses a traced JB scan models:
// one per status write (distribution.trace).
type statusWrites struct{ n int }

func (c *statusWrites) Access(addr uint64) {
	if addr >= 1<<52 {
		c.n++
	}
}

func (c *statusWrites) Op(uint64) {}

// TestJBStatusMaintenance pins the JB router's exactly-once status
// maintenance over every worker of a join at Threads 4: the workers'
// tables together hold every distinct key and nothing else, a key is only
// in tables of its own group's workers, each dispatched tuple is written
// once in all — so with every key distinct, each key is in exactly one
// table — and the traced model sees one status access per write.
func TestJBStatusMaintenance(t *testing.T) {
	const threads = 4
	unique := func(n, from int) tuple.Relation {
		rel := make(tuple.Relation, n)
		for i := range rel {
			rel[i] = tuple.Tuple{Key: int32(from+i) * -7919} // both signs
		}
		return rel
	}
	dup := gen.MicroStatic(700, 500, 6, 0.5, 3)
	for _, in := range []struct {
		name     string
		r, s     tuple.Relation
		distinct bool
	}{
		{"distinct", unique(600, 0), unique(500, 600), true},
		{"duplicates", dup.R, dup.S, false},
	} {
		keys := map[int32]bool{}
		for _, x := range append(slices.Clone(in.r), in.s...) {
			keys[x.Key] = true
		}
		for _, g := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/g=%d", in.name, g), func(t *testing.T) {
				union := map[int32]int{} // key → tables that hold it
				var written int
				tr := &statusWrites{}
				for tid := 0; tid < threads; tid++ {
					d := newJB(threads, tid, g, len(in.r)+len(in.s), pool.New().U32)
					d.tracer = tr
					for _, c := range []*cursor{{rel: in.r, side: sideR}, {rel: in.s, side: sideS}} {
						for !c.done() {
							c.batch(nil, 7, 0, true, &d) // partial blocks
						}
					}
					if d.pending.n != 0 {
						t.Fatalf("worker %d: %d status writes staged after its scans", tid, d.pending.n)
					}
					for key, group := range d.status.recorded() {
						if !keys[key] {
							t.Fatalf("worker %d records key %d, which no tuple has", tid, key)
						}
						if want := int(hashtable.Hash(key) % uint32(threads/g)); group != int32(want) || want != tid/g {
							t.Fatalf("worker %d (group %d) records key %d as group %d; the key's group is %d", tid, tid/g, key, group, want)
						}
						union[key]++
					}
					if d.status.n > 0 && d.statusBytes() == 0 {
						t.Fatalf("worker %d: %d keys recorded, no status bytes accounted", tid, d.status.n)
					}
					written += d.status.n
				}
				if len(union) != len(keys) {
					t.Fatalf("the workers record %d keys together, want all %d", len(union), len(keys))
				}
				if dispatched := len(in.r) + len(in.s); tr.n != dispatched {
					t.Fatalf("%d status writes traced for %d dispatched tuples", tr.n, dispatched)
				}
				if in.distinct || g == 1 {
					for key, tables := range union {
						if tables != 1 {
							t.Fatalf("key %d is in %d tables, want one", key, tables)
						}
					}
				}
				if in.distinct && written != len(in.r)+len(in.s) {
					t.Fatalf("%d distinct keys written for %d dispatched tuples", written, len(in.r)+len(in.s))
				}
			})
		}
	}
	jm := newJM(4, 0)
	if jm.statusBytes() != 0 {
		t.Fatal("JM keeps no router status")
	}
}

func TestCursorBatchGating(t *testing.T) {
	rel := tuple.Relation{{TS: 0}, {TS: 5}, {TS: 10}}
	c := &cursor{rel: rel, side: sideS}
	all := newJM(1, 0) // one worker owns everything
	buf, waiting := c.batch(nil, 10, 4, false, &all)
	if len(buf) != 1 || !waiting {
		t.Fatalf("at t=4 only ts=0 has arrived: got %d waiting=%v", len(buf), waiting)
	}
	buf, waiting = c.batch(buf[:0], 10, 100, false, &all)
	if len(buf) != 2 || waiting {
		t.Fatalf("at t=100 the rest must arrive: got %d waiting=%v", len(buf), waiting)
	}
	if !c.done() {
		t.Fatal("cursor must be exhausted")
	}
}

func TestCursorBatchLimit(t *testing.T) {
	rel := make(tuple.Relation, 100)
	all := newJM(1, 0)
	c := &cursor{rel: rel, side: sideS}
	buf, _ := c.batch(nil, 7, 0, true, &all)
	if len(buf) != 7 || c.idx != 7 {
		t.Fatalf("batch must respect max: %d tuples, cursor at %d", len(buf), c.idx)
	}
	// The limit counts owned tuples: a worker owning every other S tuple
	// walks past the rest to fill its batch.
	half := newJM(2, 1)
	c = &cursor{rel: rel, side: sideS}
	buf, _ = c.batch(nil, 7, 0, true, &half)
	if len(buf) != 7 || c.idx != 14 {
		t.Fatalf("7 owned of every other tuple: %d tuples, cursor at %d, want 7 and 14", len(buf), c.idx)
	}
}

// TestEagerRunAllocations pins what a pooled, warmed eager join allocates
// at Threads 2. The whole-join benchmark bounds alloc_mb at 2% of ≈20 KB a
// round of nine joins — a few hundred bytes — so one more heap object per
// worker is a regression there: the worker is a stack value with no
// pointer to itself (a cursor holding &w.dist would move it to the heap)
// and its phases are begin/end pairs, not closures. The bounds are the
// counts before the worker was written once (14 and 19); the root's
// TestWarmJoinAllocations holds every column to Threads objects.
func TestEagerRunAllocations(t *testing.T) {
	w := gen.MicroStatic(4000, 4000, 4, 0, 9)
	for _, c := range []struct {
		alg core.Algorithm
		max float64
	}{{SHJ{}, 14}, {SHJ{JB: true}, 14}, {PMJ{}, 19}, {PMJ{JB: true}, 19}} {
		cfg := core.RunConfig{Threads: 2, AtRest: true, Pool: pool.New()}
		run := func() {
			if _, err := core.Run(c.alg, w.R, w.S, 0, cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pool
		run()
		got := testing.AllocsPerRun(20, run)
		if got > c.max {
			t.Errorf("%s: %.0f allocations per pooled run, want at most %.0f", c.alg.Name(), got, c.max)
		} else {
			t.Logf("%s: %.0f allocations per pooled run", c.alg.Name(), got)
		}
	}
}

func TestPMJSpillToDisk(t *testing.T) {
	w := gen.MicroStatic(6000, 6000, 10, 0.2, 41)
	want := expected(w.R, w.S)
	dir := t.TempDir()
	for _, jb := range []bool{false, true} {
		for _, threads := range []int{2, 1} {
			// Two windows over one pool: the first takes its run, scratch
			// and reload buffers cold; the second must find every one of
			// them released — a spilled run's as soon as it is on disk —
			// and leave no file behind either. How many buffers two
			// workers hold at once depends on how they interleave, so the
			// count is pinned on the single-worker run.
			p := pool.New()
			for window := 0; window < 2; window++ {
				res, err := core.Run(PMJ{JB: jb}, w.R, w.S, 0, core.RunConfig{
					Threads: threads, AtRest: true, Pool: p,
					Knobs: core.Knobs{SortStepFrac: 0.1, SpillDir: dir},
				})
				if err != nil {
					t.Fatalf("jb=%v threads=%d window %d: %v", jb, threads, window, err)
				}
				if res.Matches != want {
					t.Fatalf("jb=%v threads=%d window %d: matches = %d, want %d", jb, threads, window, res.Matches, want)
				}
				misses := res.Pool.Misses[metrics.PoolTuples]
				if window == 0 && misses == 0 {
					t.Fatalf("jb=%v threads=%d: the cold window took no tuple buffer from the pool", jb, threads)
				}
				if window == 1 && threads == 1 && misses != 0 {
					t.Fatalf("jb=%v: the second pooled window allocated %d run buffers", jb, misses)
				}
				// Spill files must be cleaned up after the run.
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != 0 {
					t.Fatalf("jb=%v threads=%d window %d: %d spill files left behind", jb, threads, window, len(entries))
				}
			}
		}
	}
}

func TestPMJSpillBadDir(t *testing.T) {
	w := gen.MicroStatic(500, 500, 2, 0, 1)
	_, err := core.Run(PMJ{}, w.R, w.S, 0, core.RunConfig{
		Threads: 1, AtRest: true,
		Knobs: core.Knobs{SpillDir: "/nonexistent-dir-for-sure"},
	})
	if err == nil {
		t.Fatal("unwritable spill dir must surface an error")
	}
}

// setAll stages a status write of each key to group g and makes them.
func (t *statusTable) setAll(keys []int32, g int32) {
	var st statusStage
	for _, key := range keys {
		if st.push(key, hashtable.Hash(key)) {
			t.flush(&st, g)
		}
	}
	t.flush(&st, g)
}

// TestStatusTableSize pins the table to the smallest power of two that
// holds maxKeys at load one half: a window of 2^k keys gets 2^(k+1) slots,
// not the 2^(k+2) an off-by-one in the rounding used to hand out (64 MB
// cleared and random-written per JB worker on 2^20+2^20 tuples).
func TestStatusTableSize(t *testing.T) {
	for _, c := range []struct{ maxKeys, slots int }{
		{0, 1}, {1, 2}, {2, 4}, {3, 8}, {4, 8}, {5, 16},
		{1023, 2048}, {1024, 2048}, {1025, 4096},
		{1 << 20, 1 << 21}, {1<<20 + 1, 1 << 22}, {1 << 21, 1 << 22},
	} {
		if got := statusSlots(c.maxKeys); got != c.slots {
			t.Errorf("maxKeys %d: %d slots, want %d", c.maxKeys, got, c.slots)
		}
	}
	// At the documented worst case — every key distinct, load exactly one
	// half — every write still finds a slot; a slot is two cells.
	const n = 1024
	st := newStatusTable(n, pool.New().U32)
	if len(st.cells) != 4*n || st.mask != 4*n-1 {
		t.Fatalf("%d keys: %d cells, mask %#x; want %d slots of two cells", n, len(st.cells), st.mask, 2*n)
	}
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = int32(i)
	}
	st.setAll(keys, 0)
	if st.n != n {
		t.Fatalf("%d of %d distinct keys recorded", st.n, n)
	}
}

// TestStatusTableRecordsLikeAMap checks the router's flat status table
// against a Go map: same distinct-key count, last write wins, negative
// keys, colliding slots and blocks cut short included, on pooled arrays
// that come back dirty.
func TestStatusTableRecordsLikeAMap(t *testing.T) {
	p := pool.New()
	for round := 0; round < 3; round++ {
		const n = 3000
		st := newStatusTable(n, p.U32)
		want := map[int32]int32{}
		for i := 0; i < n; {
			// Runs of 1 to 2*statusBlock writes per group: full blocks and
			// partial ones.
			g, run := int32(i%5), 1+i%(2*statusBlock)
			var keys []int32
			for ; run > 0 && i < n; run, i = run-1, i+1 {
				key := int32(i*2654435761) % 977 // repeats, both signs
				keys = append(keys, key)
				want[key] = g
			}
			st.setAll(keys, g)
		}
		if st.n != len(want) {
			t.Fatalf("round %d: %d distinct keys recorded, want %d", round, st.n, len(want))
		}
		if got := st.recorded(); !maps.Equal(got, want) {
			t.Fatalf("round %d: the table records %d keys unlike the map's %d", round, len(got), len(want))
		}
		p.PutU32(st.cells)
	}
	// A round takes one array: key and group share it.
	if misses := p.Stats().Misses[metrics.PoolU32]; misses != 1 {
		t.Fatalf("three rounds allocated %d arrays, want the first round's one", misses)
	}
}
