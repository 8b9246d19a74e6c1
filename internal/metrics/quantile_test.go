package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// The edge cases of the quantile machinery: empty histograms, a single
// bucket, and the max-value clamp that keeps bucket lower bounds from
// overshooting the actual maximum.

func TestQuantileEmptyHistogram(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1.0} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h.Max() != 0 || h.Total() != 0 {
		t.Errorf("empty histogram Max/Total = %d/%d, want 0/0", h.Max(), h.Total())
	}
	if cdf := h.CDF(); cdf != nil {
		t.Errorf("empty CDF = %v, want nil", cdf)
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	var h Histogram
	h.Record(7, 100)
	// Every quantile of a single-bucket histogram is that bucket's value.
	for _, q := range []float64{0.001, 0.5, 0.99, 1.0} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("single-bucket Quantile(%v) = %d, want 7", q, got)
		}
	}
	cdf := h.CDF()
	if len(cdf) != 1 || cdf[0].V != 7 || cdf[0].Frac != 1.0 {
		t.Errorf("single-bucket CDF = %+v, want [{7 1}]", cdf)
	}
}

func TestQuantileMaxValueClamp(t *testing.T) {
	var h Histogram
	// 1000 lands mid-octave: its bucket's lower bound is 992, the next
	// representative above would exceed the recorded max. A quantile may
	// never report a value above Max().
	h.Record(1000, 1)
	if got := h.Quantile(1.0); got > h.Max() {
		t.Errorf("Quantile(1) = %d exceeds Max %d", got, h.Max())
	}
	// An extreme value in the top octave must clamp too.
	var h2 Histogram
	h2.Record(1<<62+3, 5)
	if got := h2.Quantile(0.99); got > h2.Max() {
		t.Errorf("Quantile(0.99) = %d exceeds Max %d", got, h2.Max())
	}
	if h2.Max() != 1<<62+3 {
		t.Errorf("Max = %d, want %d", h2.Max(), int64(1<<62+3))
	}
}

func TestQuantileTinyTargetClampsToOne(t *testing.T) {
	var h Histogram
	h.Record(3, 1)
	h.Record(5, 1)
	// q so small that ceil(q*total) rounds to 0 — must clamp to the first
	// observation, not scan past every bucket.
	if got := h.Quantile(1e-12); got != 3 {
		t.Errorf("Quantile(1e-12) = %d, want 3", got)
	}
}

func TestTimeToFrac(t *testing.T) {
	r := Result{Progress: []CumulativePoint{
		{V: 10, Frac: 0.2},
		{V: 20, Frac: 0.5},
		{V: 40, Frac: 0.9},
		{V: 80, Frac: 1.0},
	}}
	cases := []struct {
		frac float64
		want int64
	}{
		{0.1, 10},  // before the first point: earliest sample qualifies
		{0.2, 10},  // exact hit
		{0.5, 20},  // exact hit on a middle point
		{0.6, 40},  // between points: first point at or above wins
		{1.0, 80},  // full delivery
		{1.01, 80}, // beyond 1: falls back to the last point
	}
	for _, c := range cases {
		if got := r.TimeToFrac(c.frac); got != c.want {
			t.Errorf("TimeToFrac(%v) = %d, want %d", c.frac, got, c.want)
		}
	}
}

func TestTimeToFracEmptyProgress(t *testing.T) {
	var r Result
	if got := r.TimeToFrac(0.5); got != 0 {
		t.Errorf("TimeToFrac on empty progress = %d, want 0", got)
	}
}

// TestQuantileMonotonicityProperty is the property the regression reports
// lean on: for any input distribution, p50 <= p95 <= p99 <= max. Random
// histograms across several size/spread regimes, fixed seed.
func TestQuantileMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	regimes := []struct {
		name string
		next func() int64
	}{
		{"uniform small", func() int64 { return rng.Int63n(100) }},
		{"uniform wide", func() int64 { return rng.Int63n(1 << 40) }},
		{"exponential-ish", func() int64 { return int64(rng.ExpFloat64() * 1e6) }},
		{"heavy tail", func() int64 {
			if rng.Intn(100) == 0 {
				return rng.Int63n(1 << 50)
			}
			return rng.Int63n(1000)
		}},
		{"constant", func() int64 { return 42 }},
	}
	for _, reg := range regimes {
		for trial := 0; trial < 20; trial++ {
			var h Histogram
			n := 1 + rng.Intn(2000)
			for i := 0; i < n; i++ {
				h.Record(reg.next(), 1)
			}
			p50 := h.Quantile(0.50)
			p95 := h.Quantile(0.95)
			p99 := h.Quantile(0.99)
			max := h.Max()
			if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
				t.Fatalf("%s trial %d (n=%d): quantiles not monotone: p50=%d p95=%d p99=%d max=%d",
					reg.name, trial, n, p50, p95, p99, max)
			}
			if q1 := h.Quantile(1.0); q1 > max {
				t.Fatalf("%s trial %d: p100=%d exceeds max=%d", reg.name, trial, q1, max)
			}
		}
	}
}

// TestQuantileMonotonicityEmpty pins the empty-histogram edge case: all
// quantiles and the max are zero, trivially monotone.
func TestQuantileMonotonicityEmpty(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0.5, 0.95, 0.99, 1.0} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%.2f) = %d, want 0", q, got)
		}
	}
	if h.Max() != 0 {
		t.Errorf("empty Max() = %d, want 0", h.Max())
	}
}

// TestBucketNamesRecordsBucketAndItsEdges: Bucket's index is where Record
// files the value, its bounds are in that bucket and their outer
// neighbours are not, and AddTo on it adds up to as many Records.
func TestBucketNamesRecordsBucketAndItsEdges(t *testing.T) {
	vals := []int64{-5, 0, 1, 15, 16, 17, 31, 32, 33, 1000, 1 << 20, 1<<40 + 12345}
	for v := int64(0); v < 5000; v += 7 {
		vals = append(vals, v)
	}
	var recorded, added Histogram
	for _, v := range vals {
		idx, lo, hi := Bucket(v)
		if idx != bucketOf(max(v, 0)) {
			t.Fatalf("Bucket(%d) names bucket %d, Record files it in %d", v, idx, bucketOf(max(v, 0)))
		}
		recorded.Record(v, 3)
		added.AddTo(idx, 3, v)
		if v <= 0 {
			if lo != math.MinInt64 || hi != 0 {
				t.Fatalf("Bucket(%d) spans [%d, %d], want everything up to 0", v, lo, hi)
			}
			continue
		}
		if v < lo || v > hi || bucketOf(lo) != idx || bucketOf(hi) != idx {
			t.Fatalf("Bucket(%d) = [%d, %d] is not within bucket %d", v, lo, hi, idx)
		}
		if bucketOf(lo-1) == idx || bucketOf(hi+1) == idx {
			t.Fatalf("Bucket(%d) = [%d, %d] stops short of bucket %d's edge", v, lo, hi, idx)
		}
	}
	if recorded != added {
		t.Fatal("AddTo per bucket and Record per value built different histograms")
	}
}
