package hashtable

// Scalar reference walks. No join runs these: they are the per-tuple
// build and the emit-closure probe the batched kernels replaced, kept as
// the independent implementation the differential and fuzz tests compare
// the kernels against pair by pair, and as the "scalar" rows of the kernel
// benchmarks.

import "repro/internal/tuple"

// Insert adds one tuple with the head-insertion scheme: when the head
// bucket is full its contents move to an overflow bucket pushed onto the
// chain and the head restarts empty.
func (t *Table) Insert(x tuple.Tuple) {
	idx := (Hash(x.Key) >> t.shift) & t.mask
	b := &t.buckets[idx]
	if b.n == 0 && b.next == nil {
		t.dirty = append(t.dirty, b)
	}
	if b.n == bucketCap {
		nb := t.newBucket()
		*nb = *b
		b.next = nb
		b.n = 0
	}
	b.tuples[b.n] = x
	b.n++
	t.size++
}

// Probe walks the chain for key and calls emit (when non-nil) for every
// stored tuple with that key. It returns the number of matches.
func (t *Table) Probe(key int32, emit func(tuple.Tuple)) int {
	return probeChain(&t.buckets[(Hash(key)>>t.shift)&t.mask], key, emit)
}

// Probe is Table.Probe over the latched directory, latch-free: callers
// probe a quiesced table.
func (t *Shared) Probe(key int32, emit func(tuple.Tuple)) int {
	return probeChain(&t.buckets[Hash(key)&t.mask].bucket, key, emit)
}

func probeChain(b *bucket, key int32, emit func(tuple.Tuple)) int {
	matches := 0
	for ; b != nil; b = b.next {
		for i := int32(0); i < b.n; i++ {
			if b.tuples[i].Key == key {
				matches++
				if emit != nil {
					emit(b.tuples[i])
				}
			}
		}
	}
	return matches
}
