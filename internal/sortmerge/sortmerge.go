// Package sortmerge provides the sorting and merging kernels of the
// sort-based join algorithms (MWay, MPass, PMJ).
//
// The paper's implementations use AVX-256 sorting networks and bitonic
// merge kernels (the avxsort routines of the Balkesen et al. benchmark).
// Go with only the standard library has no SIMD intrinsics, so the
// "vectorized" path is substituted with an LSD radix sort plus a
// branch-free merge — like the AVX kernels, both trade comparisons for
// predictable, bandwidth-bound data movement, preserving the experiment's
// contrast (Figure 21: cheaper sort, slightly cheaper merge) rather than
// absolute hardware speedups. The scalar path is a conventional
// comparison-based merge sort.
package sortmerge

import (
	"repro/internal/cachesim"
	"repro/internal/tuple"
)

// tupleBytes is the logical size of a tuple for cache-simulation addresses.
const tupleBytes = 16

// SortByKey sorts rel by join key in place (ascending). With simd set the
// vectorized-substitute radix sort is used; otherwise a scalar merge sort.
// tr may be nil; when set, the sort's memory traffic feeds the cache
// simulator using base as this array's logical address.
func SortByKey(rel []tuple.Tuple, simd bool, tr cachesim.Tracer, base uint64) {
	if len(rel) < 2 {
		return
	}
	SortByKeyScratch(rel, make([]tuple.Tuple, len(rel)), simd, tr, base)
}

// SortByKeyScratch is SortByKey with the sort's temporary buffer supplied
// by the caller: scratch must have capacity for len(rel) tuples (its
// contents are overwritten) and must not overlap rel. It allocates
// nothing, which is what lets the windowed sort joins run on pooled state.
func SortByKeyScratch(rel, scratch []tuple.Tuple, simd bool, tr cachesim.Tracer, base uint64) {
	if len(rel) < 2 {
		return
	}
	scratch = scratch[:len(rel)]
	if simd {
		radixSort(rel, scratch, tr, base)
	} else {
		scalarSort(rel, scratch, 0, len(rel), tr, base)
	}
}

// keyRank maps an int32 key to a uint32 preserving signed order. Runs per
// comparison in every sort and merge loop; must stay inlinable
// (LINTING.md §inlinegate).
//
//iawj:inline
func keyRank(k int32) uint32 { return uint32(k) ^ 0x80000000 }

// KeyRank exposes the order-preserving key mapping so callers can compute
// range boundaries consistent with SortByKey's ordering.
func KeyRank(k int32) uint32 { return keyRank(k) }

// radixSort is the vectorized-path substitute: four 8-bit LSD passes over
// the key, ping-ponging between rel and the equally long tmp.
func radixSort(rel, tmp []tuple.Tuple, tr cachesim.Tracer, base uint64) {
	n := len(rel)
	src, dst := rel, tmp
	srcBase, dstBase := base, base+uint64(n)*tupleBytes
	var counts [256]int
	for shift := uint(0); shift < 32; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for i := range src {
			counts[(keyRank(src[i].Key)>>shift)&0xff]++
		}
		sum := 0
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for i := range src {
			b := (keyRank(src[i].Key) >> shift) & 0xff
			dst[counts[b]] = src[i]
			if tr != nil {
				tr.Access(srcBase + uint64(i)*tupleBytes)
				tr.Access(dstBase + uint64(counts[b])*tupleBytes)
			}
			counts[b]++
		}
		if tr != nil {
			tr.Op(uint64(n) * 2)
		}
		src, dst = dst, src
		srcBase, dstBase = dstBase, srcBase
	}
	// 4 passes: result landed back in rel (even number of swaps).
	if &src[0] != &rel[0] {
		copy(rel, src)
	}
}

// scalarSort is a conventional top-down merge sort of rel[lo:hi] with a
// branchy merge through the equally long tmp.
func scalarSort(rel, tmp []tuple.Tuple, lo, hi int, tr cachesim.Tracer, base uint64) {
	if hi-lo < 24 {
		insertionSort(rel[lo:hi], tr, base+uint64(lo)*tupleBytes)
		return
	}
	mid := (lo + hi) / 2
	scalarSort(rel, tmp, lo, mid, tr, base)
	scalarSort(rel, tmp, mid, hi, tr, base)
	copy(tmp[lo:hi], rel[lo:hi])
	i, j := lo, mid
	for k := lo; k < hi; k++ {
		if tr != nil {
			tr.Access(base + uint64(k)*tupleBytes)
			tr.Op(3)
		}
		if i < mid && (j >= hi || keyRank(tmp[i].Key) <= keyRank(tmp[j].Key)) {
			rel[k] = tmp[i]
			i++
		} else {
			rel[k] = tmp[j]
			j++
		}
	}
}

func insertionSort(a []tuple.Tuple, tr cachesim.Tracer, base uint64) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && keyRank(a[j].Key) > keyRank(x.Key) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
		if tr != nil {
			tr.Access(base + uint64(i)*tupleBytes)
			tr.Op(uint64(i-j) + 1)
		}
	}
}

// Merge merges two key-sorted runs into out (which must have capacity for
// both). With simd the branch-free selection variant is used.
func Merge(a, b, out []tuple.Tuple, simd bool) []tuple.Tuple {
	return mergeAppend(out[:0], a, b, simd)
}

// mergeAppend appends the merge of the key-sorted runs a and b to out.
func mergeAppend(out, a, b []tuple.Tuple, simd bool) []tuple.Tuple {
	i, j := 0, 0
	if simd {
		// Branch-free core loop: select via arithmetic on the
		// comparison result, mimicking bitonic-merge data movement.
		for i < len(a) && j < len(b) {
			ka, kb := keyRank(a[i].Key), keyRank(b[j].Key)
			takeA := 0
			if ka <= kb {
				takeA = 1
			}
			if takeA == 1 {
				out = append(out, a[i])
			} else {
				out = append(out, b[j])
			}
			i += takeA
			j += 1 - takeA
		}
	} else {
		for i < len(a) && j < len(b) {
			if keyRank(a[i].Key) <= keyRank(b[j].Key) {
				out = append(out, a[i])
				i++
			} else {
				out = append(out, b[j])
				j++
			}
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// liveRuns returns the non-empty runs and their total length.
func liveRuns(runs []tuple.Relation) (live [][]tuple.Tuple, total int) {
	live = make([][]tuple.Tuple, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			total += len(r)
		}
	}
	return live, total
}

// MultiwayMerge merges k key-sorted runs in a single pass using a loser
// tree-style selection (MWay's shuffling/merging phase). Empty runs are
// skipped. The result is freshly allocated and never aliases a run.
func MultiwayMerge(runs []tuple.Relation, simd bool) []tuple.Tuple {
	return MultiwayMergeInto(nil, runs, simd)
}

// MultiwayMergeInto is MultiwayMerge writing into dst, which must not
// overlap any run: the result is dst[:total] when dst has the capacity
// and a fresh allocation otherwise. Beyond k-sized bookkeeping it then
// allocates nothing.
func MultiwayMergeInto(dst []tuple.Tuple, runs []tuple.Relation, simd bool) []tuple.Tuple {
	live, total := liveRuns(runs)
	if total == 0 {
		return nil
	}
	out := dst[:0]
	if cap(out) < total {
		out = make([]tuple.Tuple, 0, total)
	}
	if len(live) == 1 {
		return append(out, live[0]...)
	}
	// Simple binary-heap k-way merge; k is small (== thread count).
	type head struct {
		run int
		pos int
	}
	heap := make([]head, len(live))
	for i := range live {
		heap[i] = head{run: i}
	}
	key := func(h head) uint32 { return keyRank(live[h.run][h.pos].Key) }
	less := func(x, y head) bool { return key(x) < key(y) }
	// heapify
	var down func(i, n int)
	down = func(i, n int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < n && less(heap[l], heap[m]) {
				m = l
			}
			if r < n && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	n := len(heap)
	for i := n/2 - 1; i >= 0; i-- {
		down(i, n)
	}
	for n > 0 {
		h := heap[0]
		out = append(out, live[h.run][h.pos])
		h.pos++
		if h.pos < len(live[h.run]) {
			heap[0] = h
		} else {
			n--
			heap[0] = heap[n]
		}
		down(0, n)
	}
	return out
}

// TwoWayMergePasses merges runs with successive pairwise merges, MPass's
// multi-iteration strategy that scales better than a single wide multi-way
// merge for large inputs. The result is freshly allocated and never
// aliases a run.
func TwoWayMergePasses(runs []tuple.Relation, simd bool) []tuple.Tuple {
	return TwoWayMergePassesInto(nil, nil, runs, simd)
}

// TwoWayMergePassesInto is TwoWayMergePasses ping-ponging between the
// buffers a and b, which must overlap neither each other nor any run:
// odd passes write a, even passes b, and the result lies in whichever the
// last pass wrote. A buffer without the capacity for the total is
// replaced by a fresh allocation when a pass first needs it (b only from
// three runs up), so nil buffers work and sized ones make the merge
// allocation-free beyond k-sized bookkeeping.
func TwoWayMergePassesInto(a, b []tuple.Tuple, runs []tuple.Relation, simd bool) []tuple.Tuple {
	live, total := liveRuns(runs)
	if total == 0 {
		return nil
	}
	dst, other := a[:0], b[:0]
	for {
		if cap(dst) < total {
			dst = make([]tuple.Tuple, 0, total)
		}
		// One pass: every run of this round lands in dst — pairs merged,
		// an odd last run copied — so the next pass reads one buffer and
		// may overwrite the other.
		dst = dst[:0]
		next := live[:0]
		for i := 0; i < len(live); i += 2 {
			start := len(dst)
			if i+1 < len(live) {
				dst = mergeAppend(dst, live[i], live[i+1], simd)
			} else {
				dst = append(dst, live[i]...)
			}
			next = append(next, dst[start:])
		}
		if live = next; len(live) == 1 {
			return live[0]
		}
		dst, other = other, dst
	}
}

// JoinEmit receives every matching pair found by MergeJoin.
type JoinEmit func(r, s tuple.Tuple)

// MergeJoin is MergeJoinRuns handing emit one pair at a time, each run
// rectangle in row order; emit may be nil to count only.
func MergeJoin(r, s []tuple.Tuple, emit JoinEmit, tr cachesim.Tracer, baseR, baseS uint64) int64 {
	if emit == nil {
		return MergeJoinRuns(r, s, nil, tr, baseR, baseS)
	}
	return MergeJoinRuns(r, s, func(rRun, sRun []tuple.Tuple) {
		for _, a := range rRun {
			for _, b := range sRun {
				emit(a, b)
			}
		}
	}, tr, baseR, baseS)
}

// MergeJoinRuns performs a single-pass merge join over two key-sorted
// inputs. Where both hold a run of one key, every tuple of r's run matches
// every tuple of s's (the nested-loop expansion whose cache friendliness
// under high duplication Section 5.4 highlights), and emit receives the
// two runs once, as a rectangle. It returns the number of matches. emit
// may be nil to count only. tr may be nil.
//
// The per-tuple work — skipping to the next common key, measuring a run —
// is in seekMatch and runEnd; this loop turns once per common key.
func MergeJoinRuns(r, s []tuple.Tuple, emit func(rRun, sRun []tuple.Tuple), tr cachesim.Tracer, baseR, baseS uint64) int64 {
	var matches int64
	i, j := 0, 0
	for {
		i, j = seekMatch(r, s, i, j, tr, baseR, baseS)
		if i >= len(r) || j >= len(s) {
			return matches
		}
		i2, j2 := runEnd(r, i), runEnd(s, j)
		matches += int64(i2-i) * int64(j2-j)
		if emit != nil {
			emit(r[i:i2], s[j:j2])
		}
		if tr != nil {
			tr.Op(uint64(i2-i) * uint64(j2-j))
			// Sequential revisits of the run: one access per line's
			// worth of tuples approximates the cache reuse benefit.
			for a := i; a < i2; a += 4 {
				tr.Access(baseR + uint64(a)*tupleBytes)
			}
			for b := j; b < j2; b += 4 {
				tr.Access(baseS + uint64(b)*tupleBytes)
			}
		}
		i, j = i2, j2
	}
}

// seekMatch advances the cursors i into r and j into s past every key the
// other side lacks and returns them at the next common key, or with one of
// them at its input's end.
//
//iawj:hotpath
func seekMatch(r, s []tuple.Tuple, i, j int, tr cachesim.Tracer, baseR, baseS uint64) (int, int) {
	for i >= 0 && j >= 0 && i < len(r) && j < len(s) {
		kr, ks := keyRank(r[i].Key), keyRank(s[j].Key)
		if tr != nil {
			tr.Access(baseR + uint64(i)*tupleBytes)
			tr.Access(baseS + uint64(j)*tupleBytes)
			tr.Op(2)
		}
		switch {
		case kr < ks:
			i++
		case kr > ks:
			j++
		default:
			return i, j
		}
	}
	return i, j
}

// runEnd returns the end of the run of run[i]'s key that starts at i.
//
//iawj:hotpath
func runEnd(run []tuple.Tuple, i int) int {
	if i < 0 || i >= len(run) {
		return i
	}
	key := run[i].Key
	for i++; i < len(run) && run[i].Key == key; i++ {
	}
	return i
}

// Sorted reports whether rel is sorted by key (test helper shared by
// packages).
func Sorted(rel []tuple.Tuple) bool {
	for i := 1; i < len(rel); i++ {
		if keyRank(rel[i].Key) < keyRank(rel[i-1].Key) {
			return false
		}
	}
	return true
}
