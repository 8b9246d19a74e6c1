// Package sortmerge provides the sorting and merging kernels of the
// sort-based join algorithms (MWay, MPass, PMJ).
//
// The paper's implementations always sort with AVX-256 sorting networks
// and bitonic merge kernels (the avxsort routines of the Balkesen et al.
// benchmark). Go with only the standard library has no SIMD intrinsics, so
// the production sort is an LSD radix sort — like the AVX kernels it
// trades comparisons for predictable, bandwidth-bound data movement. The
// comparison merge sort survives as Figure 21's foil
// (core.Knobs.ScalarSort), preserving the experiment's contrast (a cheaper
// sort) rather than absolute hardware speedups. There is one merge: Go
// cannot select a tuple on the comparison without branching on it, and a
// merge that tried was slower than this one.
package sortmerge

import (
	"math"
	"math/bits"

	"repro/internal/cachesim"
	"repro/internal/tuple"
)

// SortByKey sorts rel by join key in place (ascending) and stably. With
// radix set the radix sort is used; otherwise the scalar merge sort, the
// Figure 21 foil. tr may be nil; when set, the sort's memory traffic feeds
// the cache simulator using base as this array's logical address.
func SortByKey(rel []tuple.Tuple, radix bool, tr cachesim.Tracer, base uint64) {
	if len(rel) < 2 {
		return
	}
	SortByKeyScratch(rel, make([]tuple.Tuple, len(rel)), radix, tr, base)
}

// SortByKeyScratch is SortByKey with the sort's temporary buffer supplied
// by the caller: scratch must have capacity for len(rel) tuples (its
// contents are overwritten) and must not overlap rel. It allocates
// nothing, which is what lets the windowed sort joins run on pooled state.
func SortByKeyScratch(rel, scratch []tuple.Tuple, radix bool, tr cachesim.Tracer, base uint64) {
	if len(rel) < 2 {
		return
	}
	scratch = scratch[:len(rel)]
	// The radix sort counts in uint32: past 2^32 tuples (64 GiB) only the
	// merge sort is exact.
	if radix && uint64(len(rel)) <= math.MaxUint32 {
		radixSort(rel, scratch, tr, base, base+uint64(len(rel))*tuple.Bytes)
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

// Digit widths of the radix sort. A run of at least wideFrom tuples sorts
// on 11-bit digits (three, the top one 10 bits wide): keys below 2^11 then
// take one pass and keys below 2^22 two. A shorter run — a PMJ seal — sorts
// on four 8-bit digits, because clearing and prefix-summing 3×2048
// counters costs more there than the pass they might save. From msdFrom
// tuples (4 MiB) a 2048-way scatter over the whole run stalls on cache and
// TLB misses, so such a run is first split 2^msdBits ways on the top bits
// its keys vary in, and each part, now cache-sized, is sorted on its own.
const (
	wideBits   = 11
	narrowBits = 8
	wideFrom   = 1 << 14
	msdFrom    = 1 << 18
	msdBits    = 6
)

// radixSort is the production sort: a stable radix sort on the key rank
// of rel, which must not be empty, using the equally long tmp as scratch;
// relBase and tmpBase are their addresses for the cache simulator, which
// sees the scatter passes as it sees the merge sort's merges. One read
// pass builds every digit's histogram, on the stack. A digit every key
// shares is skipped, so only the digits a window uses move tuples.
func radixSort(rel, tmp []tuple.Tuple, tr cachesim.Tracer, relBase, tmpBase uint64) {
	if len(rel) < wideFrom {
		var h [4][1 << narrowBits]uint32
		narrowHistograms(rel, &h)
		lsdPasses(rel, tmp, [][]uint32{h[0][:], h[1][:], h[2][:], h[3][:]}, narrowBits, tr, relBase, tmpBase)
		return
	}
	var h [3][1 << wideBits]uint32
	wideHistograms(rel, &h)
	if len(rel) >= msdFrom && msdSplit(rel, tmp, &h, tr, relBase, tmpBase) {
		return
	}
	lsdPasses(rel, tmp, [][]uint32{h[0][:], h[1][:], h[2][:]}, wideBits, tr, relBase, tmpBase)
}

// msdSplit sorts rel, given its digit histograms h, by scattering it into
// tmp on the msdBits highest bits its keys vary in, radix-sorting each
// part there and copying it back. Those bits must lie in one digit above
// the lowest, so that h counts the parts without another read; otherwise
// msdSplit moves nothing and reports false.
func msdSplit(rel, tmp []tuple.Tuple, h *[3][1 << wideBits]uint32, tr cachesim.Tracer, relBase, tmpBase uint64) bool {
	r0 := keyRank(rel[0].Key)
	d := 2
	for d > 0 && h[d][r0>>(uint(d)*wideBits)&(1<<wideBits-1)] == uint32(len(rel)) {
		d--
	}
	if d == 0 {
		return false
	}
	// The keys agree above the highest bit in which digit d's least and
	// greatest values differ; splitting on the msdBits bits from there down
	// puts the parts in key order.
	fine := h[d][:]
	lo, hi := 0, len(fine)-1
	for fine[lo] == 0 {
		lo++
	}
	for fine[hi] == 0 {
		hi--
	}
	varying := bits.Len(uint(lo ^ hi))
	if varying < msdBits {
		return false
	}
	drop := varying - msdBits
	var offsets [1 << msdBits]uint32
	for b := lo; b <= hi; b++ {
		offsets[b>>drop&(1<<msdBits-1)] += fine[b]
	}
	var sum uint32
	for i, c := range offsets {
		offsets[i] = sum
		sum += c
	}
	shift, mask := uint(d)*wideBits+uint(drop), uint32(1<<msdBits-1)
	if tr != nil {
		traceScatter(tr, rel, offsets[:], shift, mask, relBase, tmpBase)
	}
	scatter(rel, tmp, offsets[:], shift, mask)
	// offsets now holds each part's end.
	start := uint32(0)
	for _, end := range offsets {
		part := tmp[start:end]
		if len(part) > 1 {
			radixSort(part, rel[start:end], tr, tmpBase+uint64(start)*tuple.Bytes, relBase+uint64(start)*tuple.Bytes)
		}
		copy(rel[start:end], part)
		start = end
	}
	return true
}

// wideHistograms counts every 11-bit digit of rel's key ranks in one pass.
//
//iawj:hotpath
func wideHistograms(rel []tuple.Tuple, h *[3][1 << wideBits]uint32) {
	const mask = 1<<wideBits - 1
	for i := range rel {
		r := keyRank(rel[i].Key)
		h[0][r&mask]++
		h[1][r>>wideBits&mask]++
		h[2][r>>(2*wideBits)&mask]++
	}
}

// narrowHistograms counts every 8-bit digit of rel's key ranks in one pass.
//
//iawj:hotpath
func narrowHistograms(rel []tuple.Tuple, h *[4][1 << narrowBits]uint32) {
	const mask = 1<<narrowBits - 1
	for i := range rel {
		r := keyRank(rel[i].Key)
		h[0][r&mask]++
		h[1][r>>narrowBits&mask]++
		h[2][r>>(2*narrowBits)&mask]++
		h[3][r>>(3*narrowBits)&mask]++
	}
}

// lsdPasses makes one stable counting pass per digit, lowest first, over
// the histograms digits (digit d is bits [d·width, (d+1)·width) of the
// key rank). A digit whose histogram holds all n keys in one bucket would
// move every tuple to where it is and is skipped, which keeps the sort
// stable. An odd number of passes leaves the result in tmp, copied back.
func lsdPasses(rel, tmp []tuple.Tuple, digits [][]uint32, width uint, tr cachesim.Tracer, relBase, tmpBase uint64) {
	n := uint32(len(rel))
	src, dst := rel, tmp
	srcBase, dstBase := relBase, tmpBase
	for d, counts := range digits {
		shift := uint(d) * width
		mask := uint32(len(counts) - 1)
		if counts[keyRank(rel[0].Key)>>shift&mask] == n {
			continue
		}
		var sum uint32
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		if tr != nil {
			traceScatter(tr, src, counts, shift, mask, srcBase, dstBase)
		}
		scatter(src, dst, counts, shift, mask)
		src, dst = dst, src
		srcBase, dstBase = dstBase, srcBase
	}
	if &src[0] != &rel[0] {
		copy(rel, src)
	}
}

// scatter moves src into dst by digit: a tuple whose digit is b lands at
// offsets[b], which then advances. offsets holds the exclusive prefix sums
// of the digit's histogram.
func scatter(src, dst []tuple.Tuple, offsets []uint32, shift uint, mask uint32) {
	for i := range src {
		b := keyRank(src[i].Key) >> shift & mask
		o := offsets[b]
		dst[o] = src[i]
		offsets[b] = o + 1
	}
}

// traceScatter feeds the cache simulator the addresses the scatter pass
// about to run will touch, in its order, and leaves offsets as it found
// them: walking the pass advances each bucket's offset to its end, which is
// the next bucket's start.
func traceScatter(tr cachesim.Tracer, src []tuple.Tuple, offsets []uint32, shift uint, mask uint32, srcBase, dstBase uint64) {
	for i := range src {
		b := keyRank(src[i].Key) >> shift & mask
		tr.Access(srcBase + uint64(i)*tuple.Bytes)
		tr.Access(dstBase + uint64(offsets[b])*tuple.Bytes)
		offsets[b]++
	}
	tr.Op(uint64(len(src)) * 2)
	copy(offsets[1:], offsets)
	offsets[0] = 0
}

// scalarSort is a conventional top-down merge sort of rel[lo:hi] with a
// branchy merge through the equally long tmp.
func scalarSort(rel, tmp []tuple.Tuple, lo, hi int, tr cachesim.Tracer, base uint64) {
	if hi-lo < 24 {
		insertionSort(rel[lo:hi], tr, base+uint64(lo)*tuple.Bytes)
		return
	}
	mid := (lo + hi) / 2
	scalarSort(rel, tmp, lo, mid, tr, base)
	scalarSort(rel, tmp, mid, hi, tr, base)
	copy(tmp[lo:hi], rel[lo:hi])
	i, j := lo, mid
	for k := lo; k < hi; k++ {
		if tr != nil {
			tr.Access(base + uint64(k)*tuple.Bytes)
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
			tr.Access(base + uint64(i)*tuple.Bytes)
			tr.Op(uint64(i-j) + 1)
		}
	}
}

// mergeAppend appends the merge of the key-sorted runs a and b to out,
// a's tuples first among equal keys.
func mergeAppend(out, a, b []tuple.Tuple) []tuple.Tuple {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if keyRank(a[i].Key) <= keyRank(b[j].Key) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// stackRuns is how many runs a merge keeps its bookkeeping for on the
// stack; a merge of more allocates it.
const stackRuns = 64

// liveRuns appends the non-empty runs to live and returns it with their
// total length.
func liveRuns(live [][]tuple.Tuple, runs []tuple.Relation) ([][]tuple.Tuple, int) {
	total := 0
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
// skipped. The result is freshly allocated and never aliases a run. The
// flag is ignored — there is one merge — and stays for the callers
// outside this module (benchmark/layers.go).
func MultiwayMerge(runs []tuple.Relation, _ bool) []tuple.Tuple {
	return MultiwayMergeInto(nil, runs)
}

// mergeHead is a run's cursor in MultiwayMergeInto's heap.
type mergeHead struct {
	run int
	pos int
}

// MultiwayMergeInto is MultiwayMerge writing into dst, which must not
// overlap any run: the result is dst[:total] when dst has the capacity
// and a fresh allocation otherwise. Up to stackRuns runs it then
// allocates nothing.
func MultiwayMergeInto(dst []tuple.Tuple, runs []tuple.Relation) []tuple.Tuple {
	var liveBuf [stackRuns][]tuple.Tuple
	live, total := liveRuns(liveBuf[:0], runs)
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
	var heapBuf [stackRuns]mergeHead
	heap := heapBuf[:0]
	for i := range live {
		heap = append(heap, mergeHead{run: i})
	}
	n := len(heap)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(heap, live, i, n)
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
		siftDown(heap, live, 0, n)
	}
	return out
}

// siftDown restores the heap order of heap[:n] below i, ordering heads by
// the key rank of their run's current tuple.
func siftDown(heap []mergeHead, live [][]tuple.Tuple, i, n int) {
	key := func(h mergeHead) uint32 { return keyRank(live[h.run][h.pos].Key) }
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && key(heap[l]) < key(heap[m]) {
			m = l
		}
		if r < n && key(heap[r]) < key(heap[m]) {
			m = r
		}
		if m == i {
			return
		}
		heap[i], heap[m] = heap[m], heap[i]
		i = m
	}
}

// TwoWayMergePassesInto merges runs with successive pairwise merges,
// MPass's multi-iteration strategy that scales better than a single wide
// multi-way merge for large inputs. It ping-pongs between the buffers a
// and b, which must overlap neither each other nor any run:
// odd passes write a, even passes b, and the result lies in whichever the
// last pass wrote. A buffer without the capacity for the total is
// replaced by a fresh allocation when a pass first needs it (b only from
// three runs up), so nil buffers work and sized ones make the merge
// allocation-free up to stackRuns runs.
func TwoWayMergePassesInto(a, b []tuple.Tuple, runs []tuple.Relation) []tuple.Tuple {
	var liveBuf [stackRuns][]tuple.Tuple
	live, total := liveRuns(liveBuf[:0], runs)
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
				dst = mergeAppend(dst, live[i], live[i+1])
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
				tr.Access(baseR + uint64(a)*tuple.Bytes)
			}
			for b := j; b < j2; b += 4 {
				tr.Access(baseS + uint64(b)*tuple.Bytes)
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
			tr.Access(baseR + uint64(i)*tuple.Bytes)
			tr.Access(baseS + uint64(j)*tuple.Bytes)
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
