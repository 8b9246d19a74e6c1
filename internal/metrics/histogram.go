package metrics

import (
	"math"
	"math/bits"
)

// Histogram is a log-bucketed histogram of non-negative int64 values in the
// spirit of HDR histograms: each power-of-two octave is split into 16
// sub-buckets, giving ~6% relative precision while keeping recording a few
// shifts and an add. It backs both the latency quantiles and the
// progressiveness curves without per-match allocation.
type Histogram struct {
	counts [64 * subBuckets]int64
	total  int64
	maxV   int64
}

const subBuckets = 16

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < subBuckets {
		return int(v) // exact buckets for tiny values
	}
	// Position of the highest set bit, branch-free via math/bits (the
	// hardware LZCNT/CLZ instruction on amd64/arm64): Record sits on the
	// match path of every algorithm, so this beats a shift loop that costs
	// up to 63 iterations for small values.
	u := uint64(v)
	msb := 63 - bits.LeadingZeros64(u)
	sub := (u >> (uint(msb) - 4)) & (subBuckets - 1)
	return (msb-3)*subBuckets + int(sub)
}

// bucketLow returns a representative (lower-bound) value for bucket i,
// inverse of bucketOf up to bucket granularity.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	msb := i/subBuckets + 3
	sub := i % subBuckets
	return (1 << uint(msb)) | int64(sub)<<(uint(msb)-4)
}

// Bucket returns the bucket Record files v in and the least and the
// greatest value that share it, so a caller recording many values can tell
// without a bucket computation that the next one lands where the last did,
// and add a whole run of them to the bucket at once (AddTo). Negative
// values clamp to 0, so the bucket of any v <= 0 reaches down to
// math.MinInt64.
func Bucket(v int64) (idx int, lo, hi int64) {
	if v <= 0 {
		return 0, math.MinInt64, 0
	}
	if v < subBuckets {
		return int(v), v, v
	}
	u := uint64(v)
	msb := uint(63 - bits.LeadingZeros64(u))
	sub := (u >> (msb - 4)) & (subBuckets - 1)
	lo = int64(1)<<msb | int64(sub)<<(msb-4)
	return (int(msb)-3)*subBuckets + int(sub), lo, lo + int64(1)<<(msb-4) - 1
}

// AddTo adds n observations to bucket idx (as Bucket names it), the
// largest of them maxV: what n Record calls on values of that bucket add
// up to.
func (h *Histogram) AddTo(idx int, n, maxV int64) {
	if n <= 0 {
		return
	}
	h.counts[idx] += n
	h.total += n
	if maxV > h.maxV {
		h.maxV = maxV
	}
}

// Record adds n observations of value v (negative values clamp to 0).
func (h *Histogram) Record(v, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)] += n
	h.total += n
	if v > h.maxV {
		h.maxV = v
	}
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int64 { return h.total }

// Max returns the largest recorded value.
func (h *Histogram) Max() int64 { return h.maxV }

// Merge adds o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	if o.maxV > h.maxV {
		h.maxV = o.maxV
	}
}

// Quantile returns an approximation of the q-quantile (0 < q <= 1): the
// smallest recorded value v such that at least ceil(q*total) observations
// are <= v. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	target := h.rank(q)
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return h.value(i)
		}
	}
	return h.maxV
}

// rank is how many observations the q-quantile must cover:
// ceil(q*total), within [1, total].
func (h *Histogram) rank(q float64) int64 {
	return min(max(int64(math.Ceil(q*float64(h.total))), 1), h.total)
}

// value is bucket i's representative, never above the recorded maximum.
func (h *Histogram) value(i int) int64 { return min(bucketLow(i), h.maxV) }

// CumulativePoint is one sample of a cumulative distribution: by value V,
// Frac of all observations had occurred.
type CumulativePoint struct {
	V    int64
	Frac float64
}

// CDF samples the cumulative distribution into out at the fractions
// k/len(out), k = 1..len(out) — point k is {Quantile(k/len(out)),
// k/len(out)} — in one walk over the buckets; it leaves out alone when the
// histogram is empty. It backs the progressiveness curves (cumulative
// percent of matches over elapsed time), whose size thus depends on
// len(out) alone, not on how many buckets the values spread over.
func (h *Histogram) CDF(out []CumulativePoint) {
	if h.total == 0 {
		return
	}
	var cum int64
	i := -1
	for k := range out {
		frac := float64(k+1) / float64(len(out))
		for target := h.rank(frac); cum < target; {
			i++
			cum += h.counts[i]
		}
		out[k] = CumulativePoint{V: h.value(i), Frac: frac}
	}
}
