package hashtable

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

func TestInsertProbeRoundTrip(t *testing.T) {
	tab := New(16)
	tab.Insert(tuple.Tuple{TS: 1, Key: 42, Payload: 7})
	var got []tuple.Tuple
	n := tab.Probe(42, func(x tuple.Tuple) { got = append(got, x) })
	if n != 1 || len(got) != 1 || got[0].Payload != 7 {
		t.Fatalf("probe returned %d tuples: %v", n, got)
	}
	if tab.Probe(43, nil) != 0 {
		t.Fatal("probe of absent key must find nothing")
	}
}

// TestDuplicateKeysChain: a key stored a hundred times is one slot and one
// contiguous run in insertion order, and the arena it lives in counts
// towards the footprint. (The name predates the key-grouped layout, in
// which duplicates no longer chain.)
func TestDuplicateKeysChain(t *testing.T) {
	tab := New(4)
	empty := tab.MemBytes()
	const dups = 100
	for i := 0; i < dups; i++ {
		tab.Insert(tuple.Tuple{Key: 5, Payload: int32(i)})
	}
	if got := tab.Probe(5, nil); got != dups {
		t.Fatalf("probe found %d, want %d", got, dups)
	}
	if tab.Size() != dups {
		t.Fatalf("Size = %d, want %d", tab.Size(), dups)
	}
	hits := tab.ProbeRuns([]tuple.Tuple{{Key: 5}, {Key: 6}}, nil, nil)
	if len(hits) != 1 || len(hits[0].Stored) != dups {
		t.Fatalf("ProbeRuns made %d hits, the first of %d tuples; want one run of %d", len(hits), len(hits[0].Stored), dups)
	}
	for i, s := range hits[0].Stored {
		if s.Payload != int32(i) {
			t.Fatalf("run position %d holds the tuple inserted %d-th", i, s.Payload)
		}
	}
	if n := carved(&tab.over); n[0]+n[1] != 0 {
		t.Fatalf("duplicates of one key took %d overflow buckets", n[0]+n[1])
	}
	if tab.MemBytes() < empty+dups*tuple.Bytes {
		t.Fatal("the arena must count towards the footprint")
	}
}

// sameSlotKeys returns n distinct keys that a table of the given directory
// mask files in one directory bucket.
func sameSlotKeys(mask uint32, n int) []int32 {
	var keys []int32
	for k := int32(1); len(keys) < n; k++ {
		if Hash(k)&mask == Hash(1)&mask {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestKeysSharingASlotInterleaved: distinct keys that share one directory
// bucket — more of them than a bucket holds, so some sit in overflow
// buckets — inserted interleaved, each many times: every key keeps its own
// run in its own insertion order, on all three build paths.
func TestKeysSharingASlotInterleaved(t *testing.T) {
	const perKey = 37
	keys := sameSlotKeys(New(64).mask, 2*bucketCap+1)
	var build []tuple.Tuple
	for round := 0; round < perKey; round++ {
		for _, k := range keys {
			build = append(build, tuple.Tuple{Key: k, Payload: int32(round)})
		}
	}
	scalar, batch, sh := New(64), New(64), NewShared(64)
	for _, x := range build {
		scalar.Insert(x)
	}
	batch.InsertBatch(build)
	sh.InsertBatch(build)
	probes := make([]tuple.Tuple, len(keys))
	for i, k := range keys {
		probes[i] = tuple.Tuple{Key: k, Payload: int32(i)}
	}
	for name, hits := range map[string][]Hit{
		"scalar-built": scalar.ProbeRuns(probes, nil, nil),
		"batch-built":  batch.ProbeRuns(probes, nil, nil),
		"shared":       sh.ProbeRuns(probes, nil),
	} {
		if len(hits) != len(keys) {
			t.Fatalf("%s: %d hits for %d stored keys", name, len(hits), len(keys))
		}
		for i, h := range hits {
			if h.Probe != probes[i] || len(h.Stored) != perKey {
				t.Fatalf("%s: hit %d is probe %+v with %d stored, want %+v with %d", name, i, h.Probe, len(h.Stored), probes[i], perKey)
			}
			for round, s := range h.Stored {
				if s.Key != keys[i] || s.Payload != int32(round) {
					t.Fatalf("%s: key %d run position %d holds %+v", name, keys[i], round, s)
				}
			}
		}
	}
	if b, s := carved(&batch.over), carved(&scalar.over); b[0]+b[1] != 2 || s != b {
		t.Fatalf("%d distinct keys in one bucket left the overflow slab at %v (scalar build %v), want 2 buckets taken", len(keys), b, s)
	}
}

// TestInsertsBetweenProbes is SHJ's pattern: a table is probed between
// inserts, so runs open and grow — and move — between two probes of the
// same key. Every probe must see exactly what was inserted before it, in
// insertion order (a map of slices is the reference).
func TestInsertsBetweenProbes(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 4))
	tab := New(256)
	ref := map[int32][]tuple.Tuple{}
	for step := 0; step < 400; step++ {
		batch := make([]tuple.Tuple, 1+rng.IntN(40))
		for i := range batch {
			batch[i] = tuple.Tuple{TS: int64(step), Key: rng.Int32N(24), Payload: int32(i)}
		}
		tab.InsertBatch(batch)
		for _, x := range batch {
			ref[x.Key] = append(ref[x.Key], x)
		}
		probes := []tuple.Tuple{{Key: rng.Int32N(24)}, {Key: rng.Int32N(48)}, {Key: batch[0].Key}}
		hits := tab.ProbeRuns(probes, nil, nil)
		for _, p := range probes {
			var got []tuple.Tuple
			if len(hits) > 0 && hits[0].Probe == p {
				got, hits = hits[0].Stored, hits[1:]
			}
			if !slices.Equal(got, ref[p.Key]) {
				t.Fatalf("step %d: probe of key %d found %d tuples, %d were inserted (or their order differs)", step, p.Key, len(got), len(ref[p.Key]))
			}
		}
	}
}

// TestProbeMatchesMapSemantics checks the table against a reference map
// under random workloads (property-based).
func TestProbeMatchesMapSemantics(t *testing.T) {
	f := func(keys []int32, probes []int32) bool {
		tab := New(len(keys))
		ref := map[int32]int{}
		for i, k := range keys {
			tab.Insert(tuple.Tuple{Key: k, Payload: int32(i)})
			ref[k]++
		}
		for _, p := range probes {
			if tab.Probe(p, nil) != ref[p] {
				return false
			}
		}
		for k, want := range ref {
			if tab.Probe(k, nil) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedConcurrentBuild builds one table from eight writers, tuple by
// tuple and in batches of uneven length: Size counts once per Insert and
// once per InsertBatch, and either way it must add up to the tuples stored.
func TestSharedConcurrentBuild(t *testing.T) {
	const threads, perThread = 8, 2000
	for _, batched := range []bool{false, true} {
		tab := NewShared(threads * perThread)
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(th), 99))
				xs := make([]tuple.Tuple, perThread)
				for i := range xs {
					xs[i] = tuple.Tuple{Key: int32(rng.IntN(500)), Payload: int32(th)}
				}
				for len(xs) > 0 {
					if !batched {
						tab.Insert(xs[0])
						xs = xs[1:]
						continue
					}
					n := min(len(xs), 1+rng.IntN(300))
					tab.InsertBatch(xs[:n])
					xs = xs[n:]
				}
			}(th)
		}
		wg.Wait()
		if tab.Size() != threads*perThread {
			t.Fatalf("batched=%v: Size = %d, want %d", batched, tab.Size(), threads*perThread)
		}
		total := 0
		for k := int32(0); k < 500; k++ {
			total += tab.Probe(k, nil)
		}
		if total != threads*perThread {
			t.Fatalf("batched=%v: probes found %d tuples, want %d", batched, total, threads*perThread)
		}
		if tab.MemBytes() <= 0 {
			t.Fatal("MemBytes must be positive")
		}
	}
}

func TestSharedMatchesUnsharedCounts(t *testing.T) {
	keys := make([]int32, 5000)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := range keys {
		keys[i] = int32(rng.IntN(64)) // heavy duplication
	}
	single := New(len(keys))
	shared := NewShared(len(keys))
	for i, k := range keys {
		single.Insert(tuple.Tuple{Key: k, Payload: int32(i)})
		shared.Insert(tuple.Tuple{Key: k, Payload: int32(i)})
	}
	for k := int32(0); k < 64; k++ {
		if single.Probe(k, nil) != shared.Probe(k, nil) {
			t.Fatalf("count mismatch on key %d", k)
		}
	}
}

func TestHashSpreads(t *testing.T) {
	// The multiplicative hash must not collapse sequential keys into few
	// buckets.
	seen := map[uint32]bool{}
	for k := int32(0); k < 1024; k++ {
		seen[Hash(k)&1023] = true
	}
	if len(seen) < 512 {
		t.Fatalf("hash collapses sequential keys: %d distinct buckets of 1024", len(seen))
	}
}

type countTracer struct {
	accesses, ops uint64
}

func (c *countTracer) Access(uint64) { c.accesses++ }
func (c *countTracer) Op(n uint64)   { c.ops += n }

func TestTracerReceivesTraffic(t *testing.T) {
	tab := New(8)
	tr := &countTracer{}
	tab.SetTracer(tr, 0)
	build := make([]tuple.Tuple, 50)
	for i := range build {
		build[i] = tuple.Tuple{Key: int32(i % 3), Payload: int32(i)}
	}
	tab.InsertBatch(build)
	if tr.accesses == 0 || tr.ops == 0 {
		t.Fatal("tracer must observe build traffic")
	}
	*tr = countTracer{}
	tab.ProbeRuns(build[:1], nil, nil)
	if tr.accesses == 0 || tr.ops == 0 {
		t.Fatal("tracer must observe probe traffic")
	}
}
