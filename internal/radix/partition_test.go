package radix

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/hashtable"
	"repro/internal/tuple"
)

// relations for the differential suite: the regimes the paper studies.
func diffRelations() map[string]tuple.Relation {
	rng := rand.New(rand.NewPCG(7, 11))
	uniform := make(tuple.Relation, 4096)
	for i := range uniform {
		uniform[i] = tuple.Tuple{Key: rng.Int32N(1 << 20), Payload: int32(i)}
	}
	// Skew: most tuples share a handful of hot keys (Figure 13's regime).
	skewed := make(tuple.Relation, 4096)
	for i := range skewed {
		k := rng.Int32N(8)
		if rng.IntN(10) == 0 {
			k = rng.Int32N(1 << 20)
		}
		skewed[i] = tuple.Tuple{Key: k, Payload: int32(i)}
	}
	// High duplication: every key repeats ~hundreds of times.
	dup := make(tuple.Relation, 4096)
	for i := range dup {
		dup[i] = tuple.Tuple{Key: rng.Int32N(16), Payload: int32(i)}
	}
	return map[string]tuple.Relation{
		"uniform": uniform,
		"skewed":  skewed,
		"highdup": dup,
		"empty":   nil,
		"single":  {tuple.Tuple{Key: 42, Payload: 1}},
	}
}

func equalParts(t *testing.T, name string, got, want []tuple.Relation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: fanout %d, want %d", name, len(got), len(want))
	}
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("%s: partition %d has %d tuples, want %d", name, p, len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			if got[p][i] != want[p][i] {
				t.Fatalf("%s: partition %d tuple %d = %+v, want %+v", name, p, i, got[p][i], want[p][i])
			}
		}
	}
}

// TestPartitionerMatchesScalar checks the scatter against the scalar
// reference (partitionRehash) across key regimes and fanouts, including
// fanout 1.
func TestPartitionerMatchesScalar(t *testing.T) {
	p := NewPartitioner()
	for name, rel := range diffRelations() {
		for _, bits := range []int{0, 1, 4, 8, 12} {
			want := partitionRehash(rel, bits)
			equalParts(t, fmt.Sprintf("%s/bits=%d", name, bits), p.Partition(rel, bits, nil, 0), want)
		}
	}
}

// event is one tracer call: an access to addr, or n ops.
type event struct {
	op   bool
	addr uint64
}

type recordTracer struct{ events []event }

func (r *recordTracer) Access(addr uint64) { r.events = append(r.events, event{addr: addr}) }
func (r *recordTracer) Op(n uint64)        { r.events = append(r.events, event{op: true, addr: n}) }

// wantTrace is the access model of the scatter, built from the reference
// partitions: per input tuple a read and two ops (the histogram), then per
// input tuple its read, the write at its output offset and three ops.
// Payloads are input positions, so the offset of input tuple i is where
// the reference put payload i.
func wantTrace(rel tuple.Relation, want []tuple.Relation, base uint64) []event {
	dst := make([]uint64, len(rel))
	d := uint64(0)
	for _, part := range want {
		for _, x := range part {
			dst[x.Payload] = d
			d++
		}
	}
	outBase := base + uint64(len(rel))*tuple.Bytes
	evs := make([]event, 0, 5*len(rel))
	for i := range rel {
		evs = append(evs, event{addr: base + uint64(i)*tuple.Bytes}, event{op: true, addr: 2})
	}
	for i := range rel {
		evs = append(evs,
			event{addr: base + uint64(i)*tuple.Bytes},
			event{addr: outBase + dst[i]*tuple.Bytes},
			event{op: true, addr: 3})
	}
	return evs
}

// TestScatterEveryFanout is the differential test of the one scatter over
// the whole RadixBits range (0-20), untraced and traced: tuples against
// partitionRehash, and in the traced case the exact access and op
// sequence the tracer receives.
func TestScatterEveryFanout(t *testing.T) {
	rel := diffRelations()["skewed"][:3000]
	const base = 1 << 34
	p := NewPartitioner()
	for bits := 0; bits <= 20; bits++ {
		want := partitionRehash(rel, bits)
		trace := wantTrace(rel, want, base)
		for _, traced := range []bool{false, true} {
			name := fmt.Sprintf("bits=%d/traced=%v", bits, traced)
			rec := &recordTracer{}
			var tr cachesim.Tracer
			if traced {
				tr = rec
			}
			equalParts(t, name, p.Partition(rel, bits, tr, base), want)
			if traced && !slices.Equal(rec.events, trace) {
				t.Fatalf("%s: the tracer's %d events differ from the %d of the access model", name, len(rec.events), len(trace))
			}
		}
	}
}

// TestPartitionerReuse runs the same Partitioner across inputs of varying
// shapes; stale buffer state leaking between calls would corrupt the
// second result.
func TestPartitionerReuse(t *testing.T) {
	p := NewPartitioner()
	rels := diffRelations()
	order := []string{"uniform", "empty", "highdup", "single", "skewed", "uniform"}
	for _, name := range order {
		rel := rels[name]
		for _, bits := range []int{10, 2} {
			got := p.Partition(rel, bits, nil, 0)
			equalParts(t, fmt.Sprintf("reuse/%s/bits=%d", name, bits), got, partitionRehash(rel, bits))
		}
	}
}

// TestPartitionerZeroSteadyStateAllocs proves the reusable-buffer claim:
// after warmup, repartitioning same-shaped input allocates nothing.
func TestPartitionerZeroSteadyStateAllocs(t *testing.T) {
	rel := diffRelations()["uniform"]
	p := NewPartitioner()
	p.Partition(rel, 10, nil, 0) // size the buffers
	allocs := testing.AllocsPerRun(50, func() {
		p.Partition(rel, 10, nil, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Partition allocates %.1f times per call, want 0", allocs)
	}
}

// FuzzPartitionerDiff drives the scatter against the scalar reference
// with arbitrary key bytes and bit counts: the tuple partitions must
// match partitionRehash.
func FuzzPartitionerDiff(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255}, uint8(1))
	f.Add([]byte{}, uint8(9))
	f.Fuzz(func(t *testing.T, raw []byte, bitsRaw uint8) {
		bits := int(bitsRaw % 13)
		rel := make(tuple.Relation, 0, len(raw)/4)
		for r := bytes.NewReader(raw); ; {
			var k int32
			if err := binary.Read(r, binary.LittleEndian, &k); err != nil {
				break
			}
			rel = append(rel, tuple.Tuple{Key: k, Payload: int32(len(rel))})
		}
		want := partitionRehash(rel, bits)
		equalParts(t, "tuples", NewPartitioner().Partition(rel, bits, nil, 0), want)
	})
}

// partitionRehash is the scalar reference the Partitioner is compared
// against, and the benchmark baseline: the pre-kernel histogram + dense
// prefix-sum scatter with fresh scratch per call, hashing every key twice
// — once in the histogram pass and again in the scatter.
func partitionRehash(rel tuple.Relation, bits int) []tuple.Relation {
	fanout := 1 << bits
	mask := uint32(fanout - 1)
	hist := make([]int, fanout)
	for i := range rel {
		hist[hashtable.Hash(rel[i].Key)&mask]++
	}
	pos := make([]int, fanout)
	sum := 0
	offs := make([]int, fanout)
	for p, c := range hist {
		offs[p] = sum
		pos[p] = sum
		sum += c
	}
	out := make(tuple.Relation, len(rel))
	for i := range rel {
		p := hashtable.Hash(rel[i].Key) & mask // the rehash
		out[pos[p]] = rel[i]
		pos[p]++
	}
	parts := make([]tuple.Relation, fanout)
	for p := 0; p < fanout; p++ {
		parts[p] = out[offs[p] : offs[p]+hist[p]]
	}
	return parts
}

// BenchmarkKernelPartition is the satellite regression benchmark at the
// production PRJ regime (2^20 tuples, 2^12-way fanout): rehash is the
// pre-kernel scatter with fresh scratch, swwcb the Partitioner (pooled
// buffers; the variant keeps the name it is recorded under in
// BENCH_3.json, though the kernel no longer stages). scripts/bench.sh
// compares them into BENCH_3.json; swwcb must beat rehash.
func BenchmarkKernelPartition(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 5))
	rel := make(tuple.Relation, 1<<20)
	for i := range rel {
		rel[i] = tuple.Tuple{Key: rng.Int32N(1 << 30), Payload: int32(i)}
	}
	const bits = 12
	b.Run("rehash", func(b *testing.B) {
		b.SetBytes(int64(len(rel)) * tuple.Bytes)
		for i := 0; i < b.N; i++ {
			partitionRehash(rel, bits)
		}
	})
	b.Run("swwcb", func(b *testing.B) {
		p := NewPartitioner()
		b.SetBytes(int64(len(rel)) * tuple.Bytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Partition(rel, bits, nil, 0)
		}
	})
}
