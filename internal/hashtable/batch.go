package hashtable

// Batched build/probe kernels.
//
// The joins drive the tables a batch at a time: one call per worker chunk
// instead of one per tuple, and matches appended to a caller-owned pair
// buffer instead of handed to a per-probe emit closure, so the NPJ/PRJ/SHJ
// inner loops run without a single per-tuple allocation (PERFORMANCE.md).
// The *Hashed entries take hash values precomputed by the hash-once
// partitioning kernel (radix.Partitioner), so a tuple that was already
// hashed for partition selection is never hashed again for bucket
// placement.
//
// There is one build kernel and one probe kernel. Each is a two-stage
// software-prefetch pipeline over blocks of D tuples (prefetch.go has the
// distance model and its calibration): stage one hashes — or reads the
// precomputed hash — and issues an early load of every bucket head in the
// block; stage two works in input order against lines already in flight.
//
//   - build: stageHeads, then commit (Table.insert drives them);
//   - probe: probeStage.table or probeStage.shared — the two directory
//     layouts — then probeStage.resolve, shared by both tables.
//
// The per-tuple loops are the //iawj:hotpath spans; the block drivers
// around them run once per 16-64 tuples and are plain code (LINTING.md
// §BCE). Profile runs (a tracer attached) and distance 1 take the
// unpipelined walks instead — insertOne and walk — so the cache simulator
// sees the classic per-tuple access sequence.
//
// ProbeBatch appends matches as consecutive (stored, probe) tuple pairs:
// dst[2i] is the stored build-side tuple, dst[2i+1] the probing tuple.
// Matches come in probe order first, chain order second, at every
// prefetch distance — the order of the scalar reference walk the
// differential tests compare against pair by pair (reference_test.go).

import (
	"repro/internal/cachesim"
	"repro/internal/tuple"
)

// hashAt is the optional-hash read of the kernels: the precomputed hash
// when the caller supplied one for position i, the key's hash otherwise.
// The length compare doubles as the bounds proof, so one per-tuple loop
// serves the hashed and unhashed entries without a residual check.
//
//iawj:inline
func hashAt(hashes []uint32, i int, key int32) uint32 {
	if i < len(hashes) {
		return hashes[i]
	}
	return Hash(key)
}

// maxShift bounds Table.shift (SetShift clamps to it). The stage-one
// loops restate the bound as shift &= maxShift so the compiler emits a
// bare shift: for an unbounded count it appends a CMP/SBB/AND fix-up, and
// Intel cores treat SBB r,r as reading r — when the register allocator
// hands that r to the bucket-header load, every iteration's address waits
// on the previous iteration's cache miss and the pipeline serializes
// (measured 4x on an out-of-cache probe, PERFORMANCE.md §7).
const maxShift = 31

// InsertBatch inserts every tuple of xs in input order.
func (t *Table) InsertBatch(xs []tuple.Tuple) { t.insert(xs, nil) }

// InsertBatchHashed inserts xs using precomputed hashes (aligned with xs),
// the hash-once fast path fed by radix.Partitioner.PartitionHashed.
func (t *Table) InsertBatchHashed(xs []tuple.Tuple, hashes []uint32) {
	t.insert(xs, hashes[:len(xs)])
}

// insert is the build kernel; hashes is nil or aligned with xs. Builds are
// write-heavy, but the ownership miss on a cold bucket line costs the same
// latency as a read miss, so the distance-D pipeline that hides probe
// misses hides them too. Insert order — and therefore chain layout — is
// input order on every path.
func (t *Table) insert(xs []tuple.Tuple, hashes []uint32) {
	d := min(int(t.pref), prefBlockMax)
	if t.tracer != nil || d <= 1 {
		for i := range xs {
			t.insertOne(xs[i], hashAt(hashes, i, xs[i].Key))
		}
	} else {
		var heads [prefBlockMax]*bucket
		for off := 0; off < len(xs); off += d {
			end := min(off+d, len(xs))
			var hblk []uint32
			if hashes != nil {
				hblk = hashes[off:end]
			}
			t.tick |= stageHeads(t.buckets, t.shift, t.mask, xs[off:end], hblk, &heads)
			t.commit(xs[off:end], &heads)
		}
	}
	t.size += int64(len(xs))
}

// stageHeads is build stage one: resolve every tuple of blk to its head
// bucket and load the header, so the line is in flight before commit
// writes it. The returned accumulator keeps the b.n loads observable
// (commit re-reads them, since an earlier insert in the block may hit the
// same bucket). hashes is nil or aligned with blk; len(blk) is at most
// prefBlockMax.
//
//iawj:hotpath
func stageHeads(buckets []bucket, shift, mask uint32, blk []tuple.Tuple, hashes []uint32, heads *[prefBlockMax]*bucket) int32 {
	_ = buckets[mask] // hoisted proof: the directory spans every masked index
	shift &= maxShift // bounded count: see maxShift
	var tick int32
	for j := range blk {
		b := &buckets[(hashAt(hashes, j, blk[j].Key)>>shift)&mask]
		heads[j&prefBlockMask] = b
		tick |= b.n
	}
	return tick
}

// commit is build stage two: insert blk into the staged heads, in input
// order. Spill empties the head bucket in place, so the staged pointers
// stay valid across a block. The slot compare against bucketCap is
// always true by the spill invariant; it tells the prover (LINTING.md
// §BCE).
//
//iawj:hotpath
func (t *Table) commit(blk []tuple.Tuple, heads *[prefBlockMax]*bucket) {
	for j := range blk {
		b := heads[j&prefBlockMask]
		if b.n == 0 && b.next == nil {
			t.dirty = append(t.dirty, b)
		}
		if b.n == bucketCap {
			b = t.spill(b)
		}
		if bn := int(b.n); bn >= 0 && bn < bucketCap {
			b.tuples[bn] = blk[j]
			b.n = int32(bn + 1)
		}
	}
}

// ScatterBuild performs the fused partition+build scatter for
// radix.Partitioner.PartitionBuild: tuple xs[i] with hash hashes[i] is
// inserted into tabs[hashes[i]&mask] — the caller guarantees that table
// exists (it sized one per non-empty partition) and carries
// SetShift(bits). The loop lives here rather than in package radix so the
// bucket walk is direct field access instead of a per-tuple call across
// the package boundary (the call overhead alone erased the fusion win on
// cache-resident windows).
//
// Like Table.insert, the scatter runs the two-stage distance-D pipeline:
// stage one resolves a block of table and bucket heads and issues early
// header loads — across tables, exactly the random directory traffic
// fusion is exposed to — and stage two inserts in input order, so
// per-table insertion order (and chain layout) matches the unfused
// PartitionHashed + InsertBatchHashed pipeline tuple for tuple.
//
// bcegate contract: every tuple selects its Table — and therefore its
// bucket directory — at runtime from tabs[h&mask], so the masked
// directory index cannot be proven against a length hoisted outside the
// loop the way the single-table kernels prove theirs. The per-table
// invariant len(t.buckets) == t.mask+1 is established at construction
// (New/SetShift) and the scatter's correctness tests cover it; the
// residual per-tuple checks are the price of fusion's cross-table
// traffic, already charged in the BENCH_3 fused-vs-unfused numbers.
//
//lint:allow bcegate cross-table scatter: directory bound is selected per tuple, data-dependent by design
//iawj:hotpath
func ScatterBuild(tabs []*Table, mask uint32, xs []tuple.Tuple, hashes []uint32) {
	d := clampPref(int(probePrefetch.Load()))
	var tstage [prefBlockMax]*Table
	var heads [prefBlockMax]*bucket
	var tick int32
	var sink *Table
	for lo := 0; lo < len(xs); lo += d {
		n := len(xs) - lo
		if n > d {
			n = d
		}
		hblk := hashes[lo : lo+n]
		for j := 0; j < n; j++ {
			h := hblk[j]
			t := tabs[h&mask]
			b := &t.buckets[(h>>t.shift)&t.mask]
			tstage[j] = t
			heads[j] = b
			tick |= b.n
		}
		blk := xs[lo : lo+n]
		for j := 0; j < n; j++ {
			t := tstage[j]
			b := heads[j]
			if b.n == 0 && b.next == nil {
				t.dirty = append(t.dirty, b)
			}
			if b.n == bucketCap {
				b = t.spill(b)
			}
			b.tuples[b.n] = blk[j]
			b.n++
			t.size++
		}
		sink = tstage[0]
	}
	if sink != nil {
		sink.tick = tick // keep the stage-one header loads observable
	}
}

// spill moves a full head bucket's contents to an overflow bucket pushed
// onto the chain and returns the emptied head, so an insert stays O(1) —
// the head-insertion scheme of the original bucket-chain design. High key
// duplication still produces long chains, whose cost is paid where the
// paper measures it: during probe walks. Outlined to keep the insert
// loops short.
//
//go:noinline
func (t *Table) spill(b *bucket) *bucket {
	nb := t.newBucket()
	*nb = *b
	b.next = nb
	b.n = 0
	return b
}

// insertOne is the unpipelined, tracer-aware insert; size accounting is
// left to Table.insert.
func (t *Table) insertOne(x tuple.Tuple, h uint32) {
	idx := (h >> t.shift) & t.mask
	b := &t.buckets[idx]
	if b.n == 0 && b.next == nil {
		t.dirty = append(t.dirty, b)
	}
	if t.tracer != nil {
		t.tracer.Access(t.base + uint64(idx)*bucketBytes)
		t.tracer.Op(4)
	}
	if b.n == bucketCap {
		b = t.spill(b)
		if t.tracer != nil {
			t.tracer.Access(t.base + uint64(idx)*bucketBytes + uint64(t.extra)*(1<<20))
			t.tracer.Op(4)
		}
	}
	b.tuples[b.n] = x
	b.n++
}

// ProbeBatch probes every tuple of probes and appends each match to dst as
// a (stored, probe) pair. It returns the grown buffer and the match count.
func (t *Table) ProbeBatch(probes []tuple.Tuple, dst []tuple.Tuple) ([]tuple.Tuple, int) {
	return t.probe(probes, nil, dst)
}

// ProbeBatchHashed is ProbeBatch with precomputed hashes aligned with
// probes.
func (t *Table) ProbeBatchHashed(probes []tuple.Tuple, hashes []uint32, dst []tuple.Tuple) ([]tuple.Tuple, int) {
	return t.probe(probes, hashes[:len(probes)], dst)
}

// probe drives the probe kernel over Table's directory; hashes is nil or
// aligned with probes.
func (t *Table) probe(probes []tuple.Tuple, hashes []uint32, dst []tuple.Tuple) ([]tuple.Tuple, int) {
	n0 := len(dst)
	d := min(int(t.pref), prefBlockMax)
	if t.tracer != nil || d <= 1 {
		for i := range probes {
			idx := (hashAt(hashes, i, probes[i].Key) >> t.shift) & t.mask
			if t.tracer != nil {
				t.tracer.Op(4) // hash + directory index
			}
			dst = walk(&t.buckets[idx], probes[i], dst, t.tracer, t.base+uint64(idx)*bucketBytes)
		}
		return dst, (len(dst) - n0) / 2
	}
	var st probeStage
	for off := 0; off < len(probes); off += d {
		end := min(off+d, len(probes))
		var hblk []uint32
		if hashes != nil {
			hblk = hashes[off:end]
		}
		st.table(t.buckets, t.shift, t.mask, probes[off:end], hblk)
		dst = st.resolve(probes[off:end], dst)
	}
	return dst, (len(dst) - n0) / 2
}

// probeStage is the stage-one scratch of the probe kernel: per probe of
// the current block, the head bucket with its count and overflow pointer
// — both lines of the 80-byte bucket, loaded early so they are in flight
// when resolve reaches them. It lives on the caller's stack.
type probeStage struct {
	heads  [prefBlockMax]*bucket
	counts [prefBlockMax]int32
	nexts  [prefBlockMax]*bucket
}

// load stages bucket b as the head of block position j.
func (s *probeStage) load(j int, b *bucket) {
	k := j & prefBlockMask
	s.heads[k] = b
	s.counts[k] = b.n
	s.nexts[k] = b.next
}

// table is probe stage one over a Table directory: hash (or read the
// precomputed hash of) every probe of blk and load its bucket head —
// independent loads the core overlaps, hiding the directory's
// random-access latency behind the block. hashes is nil or aligned with
// blk; len(blk) is at most prefBlockMax.
//
//iawj:hotpath
func (s *probeStage) table(buckets []bucket, shift, mask uint32, blk []tuple.Tuple, hashes []uint32) {
	_ = buckets[mask] // hoisted proof: the directory spans every masked index
	shift &= maxShift // bounded count: see maxShift
	for j := range blk {
		s.load(j, &buckets[(hashAt(hashes, j, blk[j].Key)>>shift)&mask])
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
		s.load(j, &buckets[Hash(blk[j].Key)&mask].bucket)
	}
}

// resolve is probe stage two: match every probe of blk against its staged
// head and the chain behind it, in probe order, appending (stored, probe)
// pairs to dst. The count clamp never fires (b.n <= bucketCap is the
// bucket invariant); it tells the prover (LINTING.md §BCE).
//
//iawj:hotpath
func (s *probeStage) resolve(blk []tuple.Tuple, dst []tuple.Tuple) []tuple.Tuple {
	for j := range blk {
		p := blk[j]
		k := j & prefBlockMask
		b, bn, nxt := s.heads[k], int(s.counts[k]), s.nexts[k]
		for {
			if bn > bucketCap {
				bn = bucketCap
			}
			for i := 0; i < bn; i++ {
				if b.tuples[i].Key == p.Key {
					dst = append(dst, b.tuples[i], p)
				}
			}
			if nxt == nil {
				break
			}
			b = nxt
			bn = int(b.n)
			nxt = b.next
		}
	}
	return dst
}

// walk is the unpipelined, tracer-aware chain walk for one probe from head
// bucket b, whose logical address is addr: the profile-run path of both
// tables, and what distance 1 runs.
func walk(b *bucket, probe tuple.Tuple, dst []tuple.Tuple, tr cachesim.Tracer, addr uint64) []tuple.Tuple {
	for hop := uint64(0); b != nil; b, hop = b.next, hop+1 {
		if tr != nil {
			tr.Access(addr + hop*(1<<20))
			tr.Op(uint64(b.n) + 1)
		}
		for i := int32(0); i < b.n; i++ {
			if b.tuples[i].Key == probe.Key {
				dst = append(dst, b.tuples[i], probe)
			}
		}
	}
	return dst
}

// InsertBatch inserts every tuple of xs under the per-bucket latches.
//
//iawj:hotpath
func (t *Shared) InsertBatch(xs []tuple.Tuple) {
	for i := range xs {
		t.insertLatched(xs[i])
	}
	t.size.Add(int64(len(xs)))
}

// ProbeBatch probes every tuple of probes latch-free (build and probe are
// separated by a barrier in NPJ) and appends each match to dst as a
// (stored, probe) pair. It returns the grown buffer and the match count.
func (t *Shared) ProbeBatch(probes []tuple.Tuple, dst []tuple.Tuple) ([]tuple.Tuple, int) {
	n0 := len(dst)
	d := min(int(t.pref), prefBlockMax)
	if t.tracer != nil || d <= 1 {
		for i := range probes {
			idx := Hash(probes[i].Key) & t.mask
			dst = walk(&t.buckets[idx].bucket, probes[i], dst, t.tracer, t.base+uint64(idx)*bucketBytes)
		}
		return dst, (len(dst) - n0) / 2
	}
	var st probeStage
	for off := 0; off < len(probes); off += d {
		blk := probes[off:min(off+d, len(probes))]
		st.shared(t.buckets, t.mask, blk)
		dst = st.resolve(blk, dst)
	}
	return dst, (len(dst) - n0) / 2
}

// ProbeBytesProcessed is the bytes-processed definition shared by every
// probe benchmark and throughput report: the probing tuple stream plus the
// (stored, probe) pairs the probe emits, 16 bytes per tuple, so the MB/s
// figures of two probe variants over the same streams differ only by time
// — not by accounting (PERFORMANCE.md §7).
func ProbeBytesProcessed(probes, matches int) int64 {
	return int64(probes+2*matches) * tuple.Bytes
}
