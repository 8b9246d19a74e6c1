package hashtable

import (
	"math/rand/v2"
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

func TestDuplicateKeysChain(t *testing.T) {
	tab := New(4)
	const dups = 100 // force overflow chains on one bucket
	for i := 0; i < dups; i++ {
		tab.Insert(tuple.Tuple{Key: 5, Payload: int32(i)})
	}
	if got := tab.Probe(5, nil); got != dups {
		t.Fatalf("probe found %d, want %d", got, dups)
	}
	if tab.Size() != dups {
		t.Fatalf("Size = %d, want %d", tab.Size(), dups)
	}
	if tab.MemBytes() <= int64(dups/bucketCap)*bucketBytes {
		t.Fatal("overflow chains must grow the footprint")
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
	tab.ProbeBatch(build[:1], nil)
	if tr.accesses == 0 || tr.ops == 0 {
		t.Fatal("tracer must observe probe traffic")
	}
}
