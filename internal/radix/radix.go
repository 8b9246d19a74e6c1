// Package radix implements the radix partitioning used by the Parallel
// Radix Join (PRJ).
//
// Following Kim et al. and the Balkesen et al. benchmark, both relations
// are subdivided on the low-order bits of the hashed key so that each
// resulting sub-relation of the build side fits in cache, after which a
// cache-resident hash join runs per partition. The number of radix bits
// (#r) is the algorithm's key tuning knob (Figure 18): more bits mean a
// higher partitioning cost but smaller, cache-friendlier partitions.
//
// Partitioning is one single-pass scatter at every #r: histogram, prefix
// sum, then one write per tuple onto its partition's frontier. Only the
// tuples are written: the per-partition build and probe hash each key
// again inside their prefetch pipelines, where the hash hides behind the
// bucket load it feeds (PERFORMANCE.md §5.1). Balkesen et al.'s software
// write-combining buffers stage each tuple and write it twice; measured
// here they lost to the direct scatter at every fanout they engaged, so
// there are none (PERFORMANCE.md §5.2). A profile run executes the same loops; the
// tracer is fed afterwards by one replay of the scatter's access
// sequence (trace).
package radix

import (
	"repro/internal/cachesim"
	"repro/internal/hashtable"
	"repro/internal/tuple"
)

// Fanout returns the number of partitions produced for a bit count.
func Fanout(bits int) int { return 1 << bits }

// Partitioner is a reusable radix partitioning kernel. It is not safe for
// concurrent use; parallel partitioning gives each worker its own
// (pooled) Partitioner. The slices Partition returns alias the
// Partitioner's internal buffers and stay valid until the next call on
// the same Partitioner. All buffers are retained across calls, so a
// pooled Partitioner partitions steady-state windows with zero
// allocations.
type Partitioner struct {
	hist  []int // per-partition tuple counts
	offs  []int // partition start offsets (prefix sum of hist)
	pos   []int // partition write cursors during the scatter
	out   []tuple.Tuple
	parts []tuple.Relation
}

// NewPartitioner returns an empty Partitioner; buffers grow on first use.
func NewPartitioner() *Partitioner { return &Partitioner{} }

// MemBytes reports the bytes held by the buffer that scales with the
// input (the tuple output) — what a pooled Partitioner retains between
// windows.
func (p *Partitioner) MemBytes() int64 { return int64(cap(p.out)) * tuple.Bytes }

// Partition splits rel into 2^bits physically contiguous partitions on
// the low bits of the key's hash; within a partition tuples keep input
// order. It sizes the buffers, scatters, replays the accesses to tr when
// one is attached (tr may be nil), and cuts the output into partitions —
// once per partition, not per tuple.
func (p *Partitioner) Partition(rel tuple.Relation, bits int, tr cachesim.Tracer, base uint64) []tuple.Relation {
	fanout := 1 << max(bits, 0)
	mask := uint32(fanout - 1)
	p.ensure(len(rel), fanout)
	p.scatter(rel, fanout, mask)
	if tr != nil {
		p.trace(rel, fanout, mask, tr, base)
	}
	parts := p.parts[:fanout]
	for pi, lo := range p.offs[:fanout] {
		parts[pi] = p.out[lo : lo+p.hist[pi]]
	}
	return parts
}

// PartitionHashed is Partition under the name the benchmark harness's
// partition replay calls; it goes with the next change to that harness.
func (p *Partitioner) PartitionHashed(rel tuple.Relation, bits int, tr cachesim.Tracer, base uint64) []tuple.Relation {
	return p.Partition(rel, bits, tr, base)
}

// scatter is the one partitioning pass: histogram, prefix sum, then one
// frontier write per tuple. It recomputes the hash in the scatter instead
// of keeping it in a scratch slice — the multiplicative hash is a handful
// of ALU ops, cheaper than streaming a 4-byte-per-tuple scratch through
// the cache twice.
//
//iawj:hotpath
func (p *Partitioner) scatter(rel tuple.Relation, fanout int, mask uint32) {
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
	out := p.out[:len(rel)]
	for i := range rel {
		h := hashtable.Hash(rel[i].Key)
		d := pos[h&mask]
		//lint:allow bcegate scatter destination is the prefix-sum cursor; d < len(out) by the histogram invariant, which no local fact can prove
		out[d] = rel[i]
		pos[h&mask] = d + 1
	}
}

// trace feeds tr the scatter's access sequence, replayed after the fact
// so a profile run executes the kernel timed runs execute: per input
// tuple one read and two ops for the histogram pass, then per input tuple
// its read, its write at the frontier it was scattered to, and three ops.
// The input sits at base and the output right behind it. The replay walks
// the write cursors again from the partition starts, so it leaves them
// where the scatter did.
func (p *Partitioner) trace(rel tuple.Relation, fanout int, mask uint32, tr cachesim.Tracer, base uint64) {
	for i := range rel {
		tr.Access(base + uint64(i)*tuple.Bytes)
		tr.Op(2)
	}
	pos := p.pos[:fanout]
	copy(pos, p.offs[:fanout])
	outBase := base + uint64(len(rel))*tuple.Bytes
	for i := range rel {
		pi := hashtable.Hash(rel[i].Key) & mask
		tr.Access(base + uint64(i)*tuple.Bytes)
		tr.Access(outBase + uint64(pos[pi])*tuple.Bytes)
		tr.Op(3)
		pos[pi]++
	}
}

// ensure grows the reusable buffers for an input of n tuples and the given
// fanout; steady-state reuse with stable sizes allocates nothing.
func (p *Partitioner) ensure(n, fanout int) {
	if cap(p.out) < n {
		p.out = make(tuple.Relation, n)
	}
	if cap(p.hist) < fanout {
		p.hist = make([]int, fanout)
		p.offs = make([]int, fanout)
		p.pos = make([]int, fanout)
		p.parts = make([]tuple.Relation, fanout)
	}
}
