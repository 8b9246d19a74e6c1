package radix

// Fused partition+build.
//
// The unfused PRJ build side runs two passes over the build relation:
// PartitionHashed scatters every tuple (16 bytes) and its hash (4 bytes)
// into contiguous partition arrays, then InsertBatchHashed reads them all
// back to place each tuple in its partition's hash table. The intermediate
// partition array exists only to be consumed once — ~40 bytes of write
// plus re-read traffic per tuple whose sole product is insertion order.
//
// PartitionBuild fuses the two: after the histogram pass sizes one table
// per partition, the scatter inserts each tuple directly into its
// partition's table using the already-computed hash
// (hashtable.ScatterBuild). Per-table insertion
// order is input order — exactly the order the unfused pipeline produces —
// so fused and unfused builds yield byte-identical tables and the
// differential suite compares them pair by pair (fused_test.go).

import (
	"repro/internal/hashtable"
	"repro/internal/tuple"
)

// FuseBuildBelow is the build-side tuple count below which the fused
// kernel beats the unfused pipeline. Fusion trades the intermediate
// partition array for random writes across every partition's bucket
// directory at once (~40 bytes of directory per tuple), so it wins only
// while that whole directory set stays cache-resident: measured on the
// evaluation host the fused kernel is 1.2-1.3x ahead through 2^15 build
// tuples and behind beyond it (PERFORMANCE.md §"Winning back the
// kernels"). Window-sized PRJ builds sit comfortably below the threshold;
// bulk joins above it keep the unfused pipeline.
const FuseBuildBelow = 1 << 15

// PartitionBuild partitions rel 2^bits ways and builds one hash table per
// partition in a single pass over the input. newTable supplies the table
// for a partition of n tuples (callers hand out pooled tables with
// SetShift(bits) applied; the pool cannot be imported from here); it is
// called once per non-empty partition, in partition order. Empty
// partitions get a nil table.
//
// The returned slice aliases the Partitioner's scratch and stays valid
// until the next call on the same Partitioner.
//
//iawj:hotpath
func (p *Partitioner) PartitionBuild(rel tuple.Relation, bits int, newTable func(n int) *hashtable.Table) []*hashtable.Table {
	if bits < 0 {
		bits = 0
	}
	fanout := 1 << bits
	mask := uint32(fanout - 1)
	n := len(rel)
	ft, _ := p.geometry()
	p.ensure(n, fanout, ft)

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
	}

	// Size one table per non-empty partition.
	tabs := p.tabs[:fanout]
	for pi, c := range hist {
		if c == 0 {
			tabs[pi] = nil
			continue
		}
		//lint:allow hotpathalloc newTable runs once per non-empty partition, not per tuple
		tabs[pi] = newTable(c)
	}

	// Pass 2: scatter straight into the tables — no intermediate
	// partition array, no re-read. The loop lives in package hashtable
	// (direct bucket access plus the distance-D header-load pipeline; a
	// per-tuple insert call across the package boundary would not inline).
	hashtable.ScatterBuild(tabs, mask, rel, hashes)
	return tabs
}
