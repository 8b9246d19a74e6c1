package oracle

import (
	"slices"

	"repro/internal/tuple"
)

// Reference computes the ground-truth digest of the intra-window join of r
// and s with a sort-merge: each side is put in key order, then the two are
// walked together and every (r, s) pair of a common key materialized
// exactly once via the same tuple.ResultOf the algorithms use. It is
// deliberately the most boring possible implementation — no partitioning,
// no concurrency, no shared kernels — so a bug in the optimized layers
// cannot also live here. Its one sort is the standard library's
// slices.Sort over plain integers, not the repo's radix sort or merge
// kernels, so sharing the idea of sorting shares none of their code.
//
// The digest is a multiset hash, so the order the pairs are produced in
// does not reach it: the produced multiset is identical to the textbook
// O(|r|·|s|) double loop (NestedLoop below, which the oracle's own tests
// cross-check on small inputs).
func Reference(r, s tuple.Relation) Digest {
	var d Digest
	if len(r) == 0 || len(s) == 0 {
		return d
	}
	rs, ss := inKeyOrder(r), inKeyOrder(s)
	for i, j := 0, 0; i < len(rs) && j < len(ss); {
		k := rs[i].Key
		switch {
		case k < ss[j].Key:
			i++
		case k > ss[j].Key:
			j++
		default:
			ie, je := i+1, j+1
			for ie < len(rs) && rs[ie].Key == k {
				ie++
			}
			for je < len(ss) && ss[je].Key == k {
				je++
			}
			for _, rt := range rs[i:ie] {
				for _, st := range ss[j:je] {
					d.AddResult(tuple.ResultOf(rt, st))
				}
			}
			i, j = ie, je
		}
	}
	return d
}

// inKeyOrder returns a copy of rel sorted by key. It sorts one uint64 per
// tuple — the key, flipped into unsigned order, above the tuple's position
// — and gathers the tuples in that order: a flat sort of integers instead
// of a sort of 16-byte records through a comparator.
func inKeyOrder(rel tuple.Relation) tuple.Relation {
	order := make([]uint64, len(rel))
	for i, t := range rel {
		order[i] = uint64(uint32(t.Key)^1<<31)<<32 | uint64(i)
	}
	slices.Sort(order)
	out := make(tuple.Relation, len(rel))
	for i, o := range order {
		out[i] = rel[uint32(o)]
	}
	return out
}

// NestedLoop is the textbook quadratic join, the oracle's own oracle: it
// exists so Reference's sort-merge can be verified against something with
// no data structure at all. Use only on small inputs.
func NestedLoop(r, s tuple.Relation) Digest {
	var d Digest
	for _, rt := range r {
		for _, st := range s {
			if rt.Key == st.Key {
				d.AddResult(tuple.ResultOf(rt, st))
			}
		}
	}
	return d
}
