package hashtable

// Batched build/probe kernels.
//
// The joins drive the tables a batch at a time: one call per worker chunk
// instead of one per tuple, and what a probe found reported as one Hit —
// the probe tuple and the stored run of its key — in a caller-owned buffer
// instead of handed to a per-probe emit closure, so the NPJ/PRJ/SHJ inner
// loops run without a per-tuple allocation, a per-match key compare or a
// per-match copy (PERFORMANCE.md). Every kernel hashes its own keys: the
// hash is a handful of ALU ops in a stage that waits on the bucket line it
// addresses, cheaper than a stored hash streamed beside every tuple
// (PERFORMANCE.md §5.1).
//
// There is one build kernel and one probe kernel. Each is a two-stage
// software-prefetch pipeline over blocks of prefetchDistance tuples: stage
// one hashes and issues an early load of every bucket head in the block;
// stage two works in input order against lines already in flight.
//
//   - build: buildStage.stage, then place per tuple (Table.InsertBatch
//     drives them; Shared places under the bucket latch);
//   - probe: probeStage.table or probeStage.shared — the two directory
//     layouts — then probeStage.resolve, shared by both tables.
//
// The per-tuple loops are the //iawj:hotpath spans; the block drivers
// around them run once per block and are plain code (LINTING.md §BCE).
// Profile runs (a tracer attached) probe with the unpipelined walk
// instead, and place reports to the tracer it is handed, so the cache
// simulator sees the classic per-tuple access sequence.
//
// Order is pinned: hits come in probe order, one per probe that found its
// key, and a hit's stored run is in insertion order — on both paths, and
// whatever else shares the key's bucket. The differential tests hold the
// kernels to the scalar reference walk on it (reference_test.go).

import (
	"math/bits"

	"repro/internal/cachesim"
	"repro/internal/tuple"
)

// runRegion is where the cache simulator sees the arena runs of a bucket
// whose logical address is addr: the arena has no logical addresses of its
// own, so every bucket gets a private stretch derived from its own.
func runRegion(addr uint64, slot int) uint64 {
	return 1<<62 | (addr<<8 + uint64(slot)<<12)
}

// maxShift bounds Table.shift (SetShift clamps to it). The stage-one
// loops restate the bound as shift &= maxShift so the compiler emits a
// bare shift: for an unbounded count it appends a CMP/SBB/AND fix-up, and
// Intel cores treat SBB r,r as reading r — when the register allocator
// hands that r to the bucket-header load, every iteration's address waits
// on the previous iteration's cache miss and the pipeline serializes
// (measured 4x on an out-of-cache probe, PERFORMANCE.md §7).
const maxShift = 31

// prefetchDistance is the pipeline depth D: how many probes (or inserts)
// stage one resolves to their bucket heads before stage two reads the
// first of them.
//
// A probe over an out-of-cache table is latency-bound, not bandwidth-bound:
// each probe's directory access is an independent random read, but a
// per-tuple loop serializes them — hash, load the bucket line (stall),
// walk, repeat. Stage one issues the block's loads back to back — the head
// count and the overflow pointer, both lines of the 80-byte bucket — so by
// the time stage two reaches probe j its line has been in flight behind up
// to D-1 independent loads, and the misses overlap instead of queuing:
// software prefetching by memory-level parallelism, the Go analogue of the
// PREFETCHT0 batching in Balkesen et al.'s radix-join code and the
// index-probe batching of Shahvarani & Jacobsen.
//
// D trades pipelining against L1 pressure (the staged block must stay
// resident between the stages). 16 in-flight lines sits inside the ~10-16
// miss-status registers of recent x86 cores; 8, 16, 32 and 64 timed within
// noise on 2 vCPUs (PERFORMANCE.md §7.2), so D is compiled in, and every
// process of a build runs the same pipeline. It is a power of two: the
// stage scratch is indexed j & prefetchMask, which is bounds-check free by
// construction (LINTING.md §BCE).
const prefetchDistance = 16

// prefetchMask masks a block-local index into the stage scratch:
// j & prefetchMask == j for every j < prefetchDistance.
const prefetchMask = prefetchDistance - 1

// InsertBatch inserts every tuple of xs in input order. It is the build
// kernel: builds are write-heavy, but the ownership miss on a cold bucket
// line costs the same latency as a read miss, so the pipeline that hides
// probe misses hides them too. Insert order — and therefore run order —
// is input order on every path.
func (t *Table) InsertBatch(xs []tuple.Tuple) {
	if t.tracer != nil {
		for i := range xs {
			h := Hash(xs[i].Key)
			idx := (h >> t.shift) & t.mask
			b := &t.buckets[idx]
			if b.tags == 0 {
				t.dirty = append(t.dirty, b)
			}
			t.tracer.Op(4) // hash + directory index
			t.place(b, xs[i], tagOf(h), t.tracer, t.base+uint64(idx)*bucketBytes)
		}
	} else {
		var st buildStage
		for off := 0; off < len(xs); off += prefetchDistance {
			blk := xs[off:min(off+prefetchDistance, len(xs))]
			t.tick |= st.stage(t.buckets, t.shift, t.mask, blk)
			t.commit(blk, &st)
		}
	}
	t.size += int64(len(xs))
}

// buildStage is the stage-one scratch of the build kernel: per tuple of
// the current block, its head bucket and its key's tag. It lives on the
// caller's stack.
type buildStage struct {
	heads [prefetchDistance]*bucket
	tags  [prefetchDistance]uint32
}

// stage is build stage one: resolve every tuple of blk to its head bucket
// and load the header, so the line is in flight before commit writes it.
// The returned accumulator keeps the header loads observable (commit
// re-reads them, since an earlier insert in the block may hit the same
// bucket). len(blk) is at most prefetchDistance.
//
//iawj:hotpath
func (s *buildStage) stage(buckets []bucket, shift, mask uint32, blk []tuple.Tuple) uint32 {
	_ = buckets[mask] // hoisted proof: the directory spans every masked index
	shift &= maxShift // bounded count: see maxShift
	var tick uint32
	for j := range blk {
		h := Hash(blk[j].Key)
		b := &buckets[(h>>shift)&mask]
		tag := tagOf(h)
		s.heads[j&prefetchMask] = b
		s.tags[j&prefetchMask] = tag
		tick |= b.tags
	}
	return tick
}

// commit is build stage two: place blk into the staged heads, in input
// order. Directory buckets never move, so the staged pointers stay valid
// across a block.
//
//iawj:hotpath
func (t *Table) commit(blk []tuple.Tuple, st *buildStage) {
	for j := range blk {
		b, tag := st.heads[j&prefetchMask], st.tags[j&prefetchMask]
		if b.tags == 0 {
			t.dirty = append(t.dirty, b)
		}
		if !b.take(blk[j], tag) {
			t.place(b, blk[j], tag, nil, 0)
		}
	}
}

// take is the common case of place, small enough to inline into the
// stage-two loops and answered from the bucket's header alone: head bucket
// b has a free slot and no key with x's tag. It reports whether it stored
// x; place does whatever it declines.
//
//iawj:inline
func (b *bucket) take(x tuple.Tuple, tag uint32) bool {
	tags := b.tags
	if tags&tagsFull != 0 || candidates(tags, tag) != 0 {
		return false
	}
	b.put(slots(tags), x, tag)
	return true
}

// place stores x, whose key has the given tag, in the chain that starts at
// directory bucket b, under b's latch if the table has latches: appended to
// the run of its key when the chain holds the key already, else in the
// first free slot behind the keys that arrived before it — so a chain's
// distinct keys are in arrival order and every run is in insertion order.
// tr, when not nil, sees the walk; addr is b's logical address.
//
//iawj:hotpath
func (s *store) place(b *bucket, x tuple.Tuple, tag uint32, tr cachesim.Tracer, addr uint64) {
	for hop := uint64(0); ; b, hop = s.overflow(b), hop+1 {
		if tr != nil {
			tr.Access(addr + hop*(1<<20))
			tr.Op(6) // tag compare + store
		}
		for cand := candidates(b.tags, tag); cand != 0; cand &= cand - 1 {
			if i := bits.TrailingZeros32(cand) >> 3 & (bucketCap - 1); b.tuples[i].Key == x.Key {
				s.extend(b, i, x, tr, addr+hop*(1<<20))
				return
			}
		}
		if b.tags&tagsFull == 0 {
			b.put(slots(b.tags), x, tag)
			return
		}
	}
}

// extend appends x to the run of slot i of b, whose key is stored already.
// The first duplicate of a key opens its run in the arena with the slot's
// own tuple in front, and a full run moves to one of twice the capacity,
// so a run is contiguous whatever its length.
func (s *store) extend(b *bucket, i int, x tuple.Tuple, tr cachesim.Tracer, addr uint64) {
	i &= bucketCap - 1
	e := s.extOf(b)
	run := e.runs[i]
	if len(run) == cap(run) {
		run = s.grow(run, b.tuples[i])
		if tr != nil {
			tr.Op(2 * uint64(len(run))) // the move
		}
	}
	if tr != nil {
		tr.Access(runRegion(addr, i) + uint64(len(run))*tuple.Bytes)
		tr.Op(4)
	}
	e.runs[i] = append(run, x)
}

// ProbeRuns probes every tuple of probes, in order, and appends a Hit for
// each that found its key. A probe makes at most one hit, so a buffer with
// room for len(probes) never grows.
func (t *Table) ProbeRuns(probes []tuple.Tuple, hits []Hit) []Hit {
	if t.tracer != nil {
		for i := range probes {
			idx := (Hash(probes[i].Key) >> t.shift) & t.mask
			t.tracer.Op(4) // hash + directory index
			hits = walk(&t.buckets[idx], probes[i], hits, t.tracer, t.base+uint64(idx)*bucketBytes)
		}
		return hits
	}
	var st probeStage
	for off := 0; off < len(probes); off += prefetchDistance {
		blk := probes[off:min(off+prefetchDistance, len(probes))]
		st.table(t.buckets, t.shift, t.mask, blk)
		hits = st.resolve(blk, hits)
	}
	return hits
}

// ProbeBatch is ProbeRuns with every hit written out match by match: it
// appends a (stored, probe) tuple pair per match to dst and returns the
// grown buffer and the match count. No join runs it — a pair per match is
// the copy the run form exists to avoid; the benchmark harness times it,
// 64 probes to a ProbeRuns call.
func (t *Table) ProbeBatch(probes []tuple.Tuple, dst []tuple.Tuple) ([]tuple.Tuple, int) {
	var buf [64]Hit
	n0 := len(dst)
	for len(probes) > 0 {
		blk := probes[:min(len(probes), len(buf))]
		probes = probes[len(blk):]
		for _, h := range t.ProbeRuns(blk, buf[:0]) {
			for _, s := range h.Stored {
				dst = append(dst, s, h.Probe)
			}
		}
	}
	return dst, (len(dst) - n0) / 2
}

// probeStage is the stage-one scratch of the probe kernel: per probe of
// the current block, the head bucket with its count and overflow pointer
// — both lines of the 80-byte bucket, loaded early so they are in flight
// when resolve reaches them. It lives on the caller's stack.
type probeStage struct {
	heads [prefetchDistance]*bucket
	cands [prefetchDistance]uint32 // candidates of the head
	tags  [prefetchDistance]uint32
	exts  [prefetchDistance]*ext
}

// load stages bucket b as the head of block position j for a probe whose
// key hashes to h.
func (s *probeStage) load(j int, b *bucket, h uint32) {
	k := j & prefetchMask
	tag := tagOf(h)
	s.heads[k] = b
	s.cands[k] = candidates(b.tags, tag)
	s.tags[k] = tag
	s.exts[k] = b.ext
}

// table is probe stage one over a Table directory: hash every probe of
// blk and load its bucket head — independent loads the core overlaps,
// hiding the directory's random-access latency behind the block. len(blk)
// is at most prefetchDistance.
//
//iawj:hotpath
func (s *probeStage) table(buckets []bucket, shift, mask uint32, blk []tuple.Tuple) {
	_ = buckets[mask] // hoisted proof: the directory spans every masked index
	shift &= maxShift // bounded count: see maxShift
	for j := range blk {
		h := Hash(blk[j].Key)
		s.load(j, &buckets[(h>>shift)&mask], h)
	}
}

// shared is probe stage one over a Shared directory, latch-free: NPJ
// separates build and probe by a barrier, so probes see a quiesced table.
//
//iawj:hotpath
func (s *probeStage) shared(buckets []sharedBucket, mask uint32, blk []tuple.Tuple) {
	// Hoisted proof, address-of only: indexing by value would copy the
	// bucket latch.
	_ = &buckets[mask]
	for j := range blk {
		h := Hash(blk[j].Key)
		s.load(j, &buckets[h&mask].bucket, h)
	}
}

// resolve is probe stage two: look every probe of blk up in its staged
// head and the chain behind it, in probe order, and append a Hit where the
// key is found — the walk ends there, a key being stored once. Only slots
// whose tag matches are read.
//
//iawj:hotpath
func (s *probeStage) resolve(blk []tuple.Tuple, hits []Hit) []Hit {
	for j := range blk {
		p := blk[j]
		k := j & prefetchMask
		b, cand, tag, e := s.heads[k], s.cands[k], s.tags[k], s.exts[k]
	chain:
		for {
			for ; cand != 0; cand &= cand - 1 {
				if i := bits.TrailingZeros32(cand) >> 3 & (bucketCap - 1); b.tuples[i].Key == p.Key {
					hits = append(hits, Hit{Probe: p, Stored: b.stored(i)})
					break chain
				}
			}
			if e == nil || e.next == nil {
				break
			}
			b = e.next
			cand, e = candidates(b.tags, tag), b.ext
		}
	}
	return hits
}

// walk is the unpipelined, tracer-aware chain walk for one probe from head
// bucket b, whose logical address is addr: the profile-run path of both
// tables.
func walk(b *bucket, probe tuple.Tuple, hits []Hit, tr cachesim.Tracer, addr uint64) []Hit {
	for hop := uint64(0); ; hop++ {
		n := slots(b.tags)
		if tr != nil {
			tr.Access(addr + hop*(1<<20))
			tr.Op(uint64(n) + 1)
		}
		for i := 0; i < n; i++ {
			if b.tuples[i].Key != probe.Key {
				continue
			}
			stored := b.stored(i)
			if tr != nil && len(stored) > 1 { // the run, a cache line at a time
				for off := uint64(0); off < uint64(len(stored))*tuple.Bytes; off += 64 {
					tr.Access(runRegion(addr+hop*(1<<20), i) + off)
				}
				tr.Op(2)
			}
			return append(hits, Hit{Probe: probe, Stored: stored})
		}
		if b.ext == nil || b.ext.next == nil {
			return hits
		}
		b = b.ext.next
	}
}

// InsertBatch inserts every tuple of xs under the per-bucket latches. The
// latched loop is written out here, not called per tuple: between a latch's
// two locked instructions every instruction is on the critical path, and a
// call's spills around them cost a unique-key build a quarter of its time.
// The size is counted once per batch: the counter is one cache line every
// writer would otherwise fight over per tuple.
//
//iawj:hotpath
func (t *Shared) InsertBatch(xs []tuple.Tuple) {
	buckets, mask := t.buckets, t.mask
	_ = &buckets[mask] // hoisted proof, address-of only: a value would copy the latch
	for i := range xs {
		x := xs[i]
		h := Hash(x.Key)
		sb := &buckets[h&mask]
		sb.mu.Lock()
		if tag := tagOf(h); t.tracer != nil {
			t.tracer.Op(6) // hash + latch
			t.place(&sb.bucket, x, tag, t.tracer, t.base+uint64(h&mask)*bucketBytes)
		} else if !sb.bucket.take(x, tag) {
			t.place(&sb.bucket, x, tag, nil, 0)
		}
		sb.mu.Unlock()
	}
	t.size.Add(int64(len(xs)))
}

// ProbeRuns probes every tuple of probes latch-free (build and probe are
// separated by a barrier in NPJ) and appends a Hit for each that found its
// key, as Table.ProbeRuns does.
func (t *Shared) ProbeRuns(probes []tuple.Tuple, hits []Hit) []Hit {
	if t.tracer != nil {
		for i := range probes {
			idx := Hash(probes[i].Key) & t.mask
			hits = walk(&t.buckets[idx].bucket, probes[i], hits, t.tracer, t.base+uint64(idx)*bucketBytes)
		}
		return hits
	}
	var st probeStage
	for off := 0; off < len(probes); off += prefetchDistance {
		blk := probes[off:min(off+prefetchDistance, len(probes))]
		st.shared(t.buckets, t.mask, blk)
		hits = st.resolve(blk, hits)
	}
	return hits
}
