package radix

// Software write-combining partitioning (SWWCB).
//
// A dense prefix-sum scatter keeps 2^bits open output cursors: every
// tuple lands on a different partition's write frontier, so the scatter
// touches up to 2^bits distinct cache lines and pages concurrently — the
// TLB pressure that classically forces radix partitioning into multiple
// passes of at most ~8 bits. The original PRJ of Balkesen et al.
// (inherited by the paper) instead stages tuples in per-partition
// cache-line-sized software write-combining buffers and flushes a full
// line at a time, so the working set of the scatter is the staging array
// (L1/L2-resident) plus one streaming write per flush. That keeps even a
// 2^14-way scatter in a single pass.
//
// Staging is a bet, not a free lunch: every tuple is written twice (stage,
// then flush), and the second write only pays for itself once the direct
// scatter's open-cursor working set outgrows the cache and TLB reach. The
// partitioner therefore carries an explicit geometry — the staging slots
// per partition and the fanout threshold below which it falls back to a
// straight scatter into the pooled output buffers (defaultFlushTuples,
// defaultDirectBelow). The cachesim geometry test pins the crossover in
// the simulated hierarchy; PERFORMANCE.md compares it against the measured
// one.
//
// Partitioner bundles the scatter with the hash-once discipline and
// reusable scratch: hashes are computed once into a scratch slice, the
// histogram and the scatter both read from it, and the scattered hashes
// ride along with the tuples so downstream bucket placement
// (hashtable.InsertBatchHashed/ProbeBatchHashed with SetShift) never
// rehashes either. All buffers are retained across calls, so a pooled
// Partitioner partitions steady-state windows with zero allocations.

import (
	"repro/internal/cachesim"
	"repro/internal/hashtable"
	"repro/internal/tuple"
)

// Default SWWCB geometry. The staging capacity per partition is measured
// in tuples: 8 tuples * 16 bytes = two cache lines per partition, which
// halves the flush bookkeeping per tuple compared to the classic
// one-line (4-tuple) buffer while keeping the staging array within L2
// for every fanout that stages at all. Staging engages at
// defaultDirectBelow partitions and up. The threshold is measured, not
// guessed: on the evaluation host the direct scatter beat every staged
// geometry at every fanout up to 2^14 (PERFORMANCE.md §"Winning back the
// kernels" — large pages and deep modern TLBs have eroded the classic
// SWWCB win), so the default keeps staging dormant through 2^14 and
// engages it only beyond the measured range, where the cachesim model
// (swwcb_geometry_test.go) still projects the double-write paying for
// itself on the paper's hierarchy.
const (
	defaultFlushTuples = 8
	defaultDirectBelow = 1 << 15
)

// Partitioner is a reusable hash-once SWWCB partitioning kernel. It is not
// safe for concurrent use; parallel partitioning gives each worker its own
// (pooled) Partitioner. The slices returned by Partition/PartitionHashed
// alias the Partitioner's internal buffers and stay valid until the next
// Partition call on the same Partitioner.
type Partitioner struct {
	hashes []uint32 // hash-once scratch, aligned with the input
	hist   []int    // per-partition tuple counts
	offs   []int    // partition start offsets (prefix sum of hist)
	pos    []int    // partition write cursors during the scatter
	stage  []tuple.Tuple
	hstage []uint32
	stageN []int32
	out    []tuple.Tuple
	outH   []uint32
	parts  []tuple.Relation
	hparts [][]uint32
	tabs   []*hashtable.Table // fused partition+build product (fused.go)

	// Geometry; zero values mean the package defaults, so pooled and
	// zero-value Partitioners share one tuned configuration.
	flushT      int // staging slots per partition
	directBelow int // fanouts below this scatter directly
}

// NewPartitioner returns an empty Partitioner; buffers grow on first use.
func NewPartitioner() *Partitioner { return &Partitioner{} }

// MemBytes reports the bytes held by the buffers that scale with the input
// (hash scratch, output, staging) — what a pooled Partitioner retains
// between windows.
func (p *Partitioner) MemBytes() int64 {
	return int64(cap(p.hashes)+cap(p.outH)+cap(p.hstage))*4 +
		int64(cap(p.out)+cap(p.stage))*tuple.Bytes
}

// geometry reports the partitioner's effective geometry. It affects layout
// work only, never output: partition order and contents are identical
// across every configuration (directBelow = 1 stages at every fanout,
// which is how the in-package tests reach the staged leg at small ones).
func (p *Partitioner) geometry() (flushTuples, directBelow int) {
	flushTuples, directBelow = p.flushT, p.directBelow
	if flushTuples <= 0 {
		flushTuples = defaultFlushTuples
	}
	if directBelow <= 0 {
		directBelow = defaultDirectBelow
	}
	return flushTuples, directBelow
}

// Partition splits rel into 2^bits physically contiguous partitions with
// the SWWCB scatter; within a partition tuples keep input order. tr may be
// nil. Unlike PartitionHashed, Partition's product is the tuple partitions
// alone, so its untraced direct leg skips the per-partition hash output
// entirely.
//
//iawj:hotpath
func (p *Partitioner) Partition(rel tuple.Relation, bits int, tr cachesim.Tracer, base uint64) []tuple.Relation {
	if bits < 0 {
		bits = 0
	}
	fanout := 1 << bits
	ft, directBelow := p.geometry()
	if tr == nil && fanout < directBelow {
		p.ensure(len(rel), fanout, ft)
		parts, _ := p.partitionDirect(rel, fanout, uint32(fanout-1), false)
		return parts
	}
	parts, _ := p.PartitionHashed(rel, bits, tr, base)
	return parts
}

// PartitionHashed is Partition plus the hash-once product: the second
// return value holds, for every partition, the key hashes aligned with the
// partition's tuples, ready for hashtable.InsertBatchHashed /
// ProbeBatchHashed with SetShift(bits).
//
//iawj:hotpath
func (p *Partitioner) PartitionHashed(rel tuple.Relation, bits int, tr cachesim.Tracer, base uint64) ([]tuple.Relation, [][]uint32) {
	if bits < 0 {
		bits = 0
	}
	fanout := 1 << bits
	mask := uint32(fanout - 1)
	n := len(rel)
	ft, directBelow := p.geometry()
	p.ensure(n, fanout, ft)

	if tr == nil && fanout < directBelow {
		return p.partitionDirect(rel, fanout, mask, true)
	}

	// Pass 1: hash once, histogram from the scratch.
	hashes := p.hashes[:n]
	hist := p.hist[:fanout]
	for i := range hist {
		hist[i] = 0
	}
	// Hoisted proof: the histogram spans every masked partition id
	// (LINTING.md §BCE).
	_ = hist[mask]
	for i := range rel {
		h := hashtable.Hash(rel[i].Key)
		hashes[i] = h
		hist[h&mask]++
		if tr != nil {
			tr.Access(base + uint64(i)*tupleBytes)
			tr.Op(2)
		}
	}
	offs := p.offs[:fanout]
	pos := p.pos[:fanout]
	sum := 0
	for pi, c := range hist {
		offs[pi] = sum
		pos[pi] = sum
		sum += c
	}
	// Hoisted proof: the write cursors span every masked partition id
	// (LINTING.md §BCE).
	_ = pos[mask]

	// Pass 2: scatter.
	out := p.out[:n]
	outH := p.outH[:n]
	outBase := base + uint64(n)*tupleBytes
	if fanout < directBelow {
		// Direct: one write per tuple onto its partition's frontier.
		// At this fanout the open cursors fit the cache hierarchy, so
		// staging's second write per tuple would be pure overhead.
		// (Untraced runs take partitionDirect above; this leg keeps the
		// per-tuple access model for profile runs.)
		for i := range rel {
			h := hashes[i]
			d := pos[h&mask]
			//lint:allow bcegate scatter destination is the prefix-sum cursor; d < len(out) by the histogram invariant, which no local fact can prove
			out[d] = rel[i]
			outH[d] = h
			pos[h&mask] = d + 1
			if tr != nil {
				tr.Access(base + uint64(i)*tupleBytes)
				tr.Access(outBase + uint64(d)*tupleBytes)
				tr.Op(3)
			}
		}
	} else {
		// SWWCB: tuples stage in per-partition buffers of ft tuples
		// (tr sees the L1/L2-resident staging array) and flush as one
		// bulk write per full buffer (tr sees one access per flushed
		// line, the SWWCB traffic model).
		stage := p.stage[:fanout*ft]
		hstage := p.hstage[:fanout*ft]
		stageN := p.stageN[:fanout]
		for i := range stageN {
			stageN[i] = 0
		}
		// Hoisted proof: the fill counters span every masked partition id
		// (LINTING.md §BCE).
		_ = stageN[mask]
		stageBase := base ^ 1<<58
		for i := range rel {
			h := hashes[i]
			pi := int(h & mask)
			bn := stageN[pi]
			slot := pi*ft + int(bn)
			//lint:allow bcegate staging slot combines the partition id with its fill count; bn < ft by the flush-at-ft invariant, which no local fact can prove
			stage[slot] = rel[i]
			hstage[slot] = h
			bn++
			if tr != nil {
				tr.Access(base + uint64(i)*tupleBytes)
				tr.Access(stageBase + uint64(slot)*tupleBytes)
				tr.Op(3)
			}
			if int(bn) == ft {
				p.flush(out, outH, pi, int(bn), ft, tr, outBase)
				bn = 0
			}
			stageN[pi] = bn
		}
		for pi := 0; pi < fanout; pi++ {
			if bn := stageN[pi]; bn > 0 {
				p.flush(out, outH, pi, int(bn), ft, tr, outBase)
			}
		}
	}

	parts := p.parts[:fanout]
	hparts := p.hparts[:fanout]
	for pi := 0; pi < fanout; pi++ {
		lo := offs[pi]
		hi := lo + hist[pi]
		parts[pi] = out[lo:hi]   //lint:allow bcegate partition boundaries are prefix-sum offsets; lo <= hi <= len(out) by the histogram invariant, once per partition not per tuple
		hparts[pi] = outH[lo:hi] //lint:allow bcegate same prefix-sum boundaries as the tuple partitions above
	}
	return parts, hparts
}

// partitionDirect is the untraced direct-scatter leg: histogram, prefix
// sum, then one frontier write per tuple. It recomputes the hash in the
// scatter instead of staging it in the hash-once scratch — the
// multiplicative hash is a handful of ALU ops, cheaper than streaming a
// 4-byte-per-tuple scratch through the cache twice. When withH is set
// (PartitionHashed) the hashes land in outH on the way past; Partition
// clears it and skips that write stream, since its callers consume only
// the tuple partitions. Partition order and contents are byte-identical
// to the staged and traced legs either way.
//
//iawj:hotpath
func (p *Partitioner) partitionDirect(rel tuple.Relation, fanout int, mask uint32, withH bool) ([]tuple.Relation, [][]uint32) {
	n := len(rel)
	hist := p.hist[:fanout]
	for i := range hist {
		hist[i] = 0
	}
	// Hoisted proof: the histogram and write cursors span every masked
	// partition id (LINTING.md §BCE).
	_ = hist[mask]
	for i := range rel {
		hist[hashtable.Hash(rel[i].Key)&mask]++
	}
	offs := p.offs[:fanout]
	pos := p.pos[:fanout]
	sum := 0
	for pi, c := range hist {
		offs[pi] = sum
		pos[pi] = sum
		sum += c
	}
	_ = pos[mask]
	out := p.out[:n]
	if withH {
		outH := p.outH[:n]
		for i := range rel {
			h := hashtable.Hash(rel[i].Key)
			d := pos[h&mask]
			//lint:allow bcegate scatter destination is the prefix-sum cursor; d < len(out) by the histogram invariant, which no local fact can prove
			out[d] = rel[i]
			outH[d] = h
			pos[h&mask] = d + 1
		}
	} else {
		for i := range rel {
			h := hashtable.Hash(rel[i].Key)
			d := pos[h&mask]
			//lint:allow bcegate scatter destination is the prefix-sum cursor; d < len(out) by the histogram invariant, which no local fact can prove
			out[d] = rel[i]
			pos[h&mask] = d + 1
		}
	}
	parts := p.parts[:fanout]
	for pi := 0; pi < fanout; pi++ {
		lo := offs[pi]
		parts[pi] = out[lo : lo+hist[pi]] //lint:allow bcegate partition boundaries are prefix-sum offsets; lo <= hi <= len(out) by the histogram invariant, once per partition not per tuple
	}
	if !withH {
		return parts, nil
	}
	outH := p.outH[:n]
	hparts := p.hparts[:fanout]
	for pi := 0; pi < fanout; pi++ {
		lo := offs[pi]
		hparts[pi] = outH[lo : lo+hist[pi]] //lint:allow bcegate same prefix-sum boundaries as the tuple partitions above
	}
	return parts, hparts
}

// flush copies partition pi's staged tuples (and hashes) to its output
// cursor and models the bulk write at cache-line granularity.
func (p *Partitioner) flush(out []tuple.Tuple, outH []uint32, pi, bn, ft int, tr cachesim.Tracer, outBase uint64) {
	dst := p.pos[pi]
	slot := pi * ft
	copy(out[dst:dst+bn], p.stage[slot:slot+bn])
	copy(outH[dst:dst+bn], p.hstage[slot:slot+bn])
	p.pos[pi] = dst + bn
	if tr != nil {
		cachesim.AccessRange(tr, outBase+uint64(dst)*tupleBytes, bn*tupleBytes, 64)
		tr.Op(1)
	}
}

// ensure grows the reusable buffers for an input of n tuples, the given
// fanout, and ft staging slots per partition; steady-state reuse with
// stable sizes allocates nothing.
func (p *Partitioner) ensure(n, fanout, ft int) {
	if cap(p.hashes) < n {
		p.hashes = make([]uint32, n)
		p.out = make(tuple.Relation, n)
		p.outH = make([]uint32, n)
	}
	if cap(p.hist) < fanout {
		p.hist = make([]int, fanout)
		p.offs = make([]int, fanout)
		p.pos = make([]int, fanout)
		p.stageN = make([]int32, fanout)
		p.parts = make([]tuple.Relation, fanout)
		p.hparts = make([][]uint32, fanout)
		p.tabs = make([]*hashtable.Table, fanout)
	}
	if cap(p.stage) < fanout*ft {
		p.stage = make([]tuple.Tuple, fanout*ft)
		p.hstage = make([]uint32, fanout*ft)
	}
}
