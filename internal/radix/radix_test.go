package radix

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/hashtable"
	"repro/internal/tuple"
)

func randomRel(n int, seed uint64) tuple.Relation {
	rng := rand.New(rand.NewPCG(seed, seed^3))
	rel := make(tuple.Relation, n)
	for i := range rel {
		rel[i] = tuple.Tuple{Key: rng.Int32N(10000), Payload: int32(i)}
	}
	return rel
}

// partitionOf is the partition a key belongs to: the low bits of its hash.
func partitionOf(key int32, bits int) int {
	return int(hashtable.Hash(key) & (uint32(1)<<bits - 1))
}

func TestPartitionPreservesTuples(t *testing.T) {
	rel := randomRel(5000, 1)
	parts := NewPartitioner().Partition(rel, 6, nil, 0)
	if len(parts) != 64 {
		t.Fatalf("fanout = %d, want 64", len(parts))
	}
	total := 0
	seen := map[int32]bool{}
	for p, part := range parts {
		total += len(part)
		for _, x := range part {
			if partitionOf(x.Key, 6) != p {
				t.Fatalf("tuple key %d landed in wrong partition %d", x.Key, p)
			}
			seen[x.Payload] = true
		}
	}
	if total != len(rel) || len(seen) != len(rel) {
		t.Fatalf("partitioning lost tuples: total=%d unique=%d want=%d", total, len(seen), len(rel))
	}
	equalParts(t, "bits=6", parts, partitionRehash(rel, 6))
}

func TestPartitionConsistencyAcrossRelations(t *testing.T) {
	// R and S tuples with the same key must land in the same partition
	// index, or the per-partition joins would miss matches.
	pr, ps := NewPartitioner(), NewPartitioner()
	f := func(keys []int32, bitsRaw uint8) bool {
		bits := int(bitsRaw%14) + 1
		r := make(tuple.Relation, len(keys))
		s := make(tuple.Relation, len(keys))
		for i, k := range keys {
			r[i] = tuple.Tuple{Key: k, Payload: int32(i)}
			s[len(keys)-1-i] = tuple.Tuple{Key: k, Payload: int32(-i)}
		}
		partsR := pr.Partition(r, bits, nil, 0)
		partsS := ps.Partition(s, bits, nil, 0)
		if len(partsR) != Fanout(bits) || len(partsS) != Fanout(bits) {
			return false
		}
		where := map[int32]int{}
		for p, part := range partsR {
			for _, x := range part {
				where[x.Key] = p
			}
		}
		for p, part := range partsS {
			for _, x := range part {
				if where[x.Key] != p {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionZeroBits(t *testing.T) {
	rel := randomRel(100, 2)
	parts := NewPartitioner().Partition(rel, 0, nil, 0)
	if len(parts) != 1 || len(parts[0]) != 100 {
		t.Fatalf("0 bits must produce one full partition, got %d parts", len(parts))
	}
	equalParts(t, "bits=0", parts, partitionRehash(rel, 0))
}

func TestPartitionEmptyRelation(t *testing.T) {
	parts := NewPartitioner().Partition(nil, 4, nil, 0)
	if len(parts) != 16 {
		t.Fatalf("fanout = %d, want 16", len(parts))
	}
	for _, p := range parts {
		if len(p) != 0 {
			t.Fatal("empty input must produce empty partitions")
		}
	}
}

func TestFanout(t *testing.T) {
	if Fanout(0) != 1 || Fanout(10) != 1024 {
		t.Fatal("fanout must be 2^bits")
	}
}

type countTracer struct{ accesses, ops uint64 }

func (c *countTracer) Access(uint64) { c.accesses++ }
func (c *countTracer) Op(n uint64)   { c.ops += n }

func TestPartitionTracesAccesses(t *testing.T) {
	rel := randomRel(200, 4)
	tr := &countTracer{}
	NewPartitioner().Partition(rel, 4, tr, 0)
	if tr.accesses == 0 || tr.ops == 0 {
		t.Fatal("tracer must observe partition traffic")
	}
}
