package hashtable

// Scalar reference walks. No join runs these: they are the per-tuple build
// and the emit-closure probe the batched kernels replaced, kept as the
// independent statement of the layout that the differential and fuzz tests
// compare the kernels against probe by probe, and as the "scalar" rows of
// the kernel benchmarks.
//
// The order they pin: a probe's stored tuples come in insertion order.
// Shared after a multi-writer build is the one exception — insertion order
// is then the interleaving's — and is compared as a multiset per probe.

import "repro/internal/tuple"

// Insert adds one tuple: to the run of its key if the chain holds the key,
// else into the first free slot at the chain's tail.
func (t *Table) Insert(x tuple.Tuple) {
	b := &t.buckets[(Hash(x.Key)>>t.shift)&t.mask]
	if b.tags == 0 {
		t.dirty = append(t.dirty, b)
	}
	scalarPlace(&t.store, b, x)
	t.size++
}

// Insert is Table.Insert under the bucket latch.
func (t *Shared) Insert(x tuple.Tuple) {
	sb := &t.buckets[Hash(x.Key)&t.mask]
	sb.mu.Lock()
	scalarPlace(&t.store, &sb.bucket, x)
	sb.mu.Unlock()
	t.size.Add(1)
}

func scalarPlace(s *store, b *bucket, x tuple.Tuple) {
	for {
		n := slots(b.tags)
		for i := 0; i < n; i++ {
			if b.tuples[i].Key == x.Key {
				s.extend(b, i, x, nil, 0)
				return
			}
		}
		if n < bucketCap {
			b.put(n, x, tagOf(Hash(x.Key)))
			return
		}
		b = s.overflow(b)
	}
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

// probeChain reads every slot of the chain, not just the first that holds
// key: a key filed in two slots would show as matches the kernels, which
// stop at the first, do not report.
func probeChain(b *bucket, key int32, emit func(tuple.Tuple)) int {
	matches := 0
	for {
		for i := 0; i < slots(b.tags); i++ {
			if b.tuples[i].Key != key {
				continue
			}
			stored := b.tuples[i : i+1]
			if b.ext != nil && len(b.ext.runs[i]) > 0 {
				stored = b.ext.runs[i]
			}
			matches += len(stored)
			for _, s := range stored {
				if emit != nil {
					emit(s)
				}
			}
		}
		if b.ext == nil || b.ext.next == nil {
			return matches
		}
		b = b.ext.next
	}
}
