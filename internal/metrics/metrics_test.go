package metrics

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Record(v, 1)
	}
	if h.Total() != 1000 {
		t.Fatalf("total = %d", h.Total())
	}
	p50 := h.Quantile(0.5)
	if p50 < 400 || p50 > 600 {
		t.Fatalf("p50 = %d, want ~500", p50)
	}
	p95 := h.Quantile(0.95)
	if p95 < 850 || p95 > 1000 {
		t.Fatalf("p95 = %d, want ~950", p95)
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d", h.Max())
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if h.Quantile(0.95) != 0 || h.CDF() != nil {
		t.Fatal("empty histogram must be zero-valued")
	}
	h.Record(-5, 1) // clamps to 0
	if h.Quantile(1) != 0 {
		t.Fatal("negative values clamp to 0")
	}
	h.Record(7, 0) // n<=0 ignored
	if h.Total() != 1 {
		t.Fatalf("total = %d, want 1", h.Total())
	}
}

func TestBucketMonotonicity(t *testing.T) {
	f := func(aRaw, bRaw uint32) bool {
		a, b := int64(aRaw), int64(bRaw)
		if a > b {
			a, b = b, a
		}
		return bucketOf(a) <= bucketOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketLowInvertsBucketOf(t *testing.T) {
	// bucketLow(bucketOf(v)) must be <= v and within ~6.25% of v.
	for _, v := range []int64{0, 1, 15, 16, 17, 100, 1023, 1024, 1 << 20, 1<<40 + 12345} {
		i := bucketOf(v)
		low := bucketLow(i)
		if low > v {
			t.Fatalf("bucketLow(%d)=%d exceeds value %d", i, low, v)
		}
		if v >= 16 && float64(v-low) > float64(v)*0.07 {
			t.Fatalf("precision loss too large: v=%d low=%d", v, low)
		}
	}
}

func TestHistogramMergeAndCDF(t *testing.T) {
	var a, b Histogram
	a.Record(10, 5)
	b.Record(1000, 5)
	a.Merge(&b)
	if a.Total() != 10 || a.Max() != 1000 {
		t.Fatalf("merge: total=%d max=%d", a.Total(), a.Max())
	}
	cdf := a.CDF()
	if len(cdf) != 2 {
		t.Fatalf("CDF points = %d, want 2", len(cdf))
	}
	if cdf[0].Frac != 0.5 || cdf[1].Frac != 1.0 {
		t.Fatalf("CDF fracs: %+v", cdf)
	}
	if a.ValueAtFrac(0.5) > 10 {
		t.Fatalf("half the mass is at 10, got %d", a.ValueAtFrac(0.5))
	}
}

func TestThreadMetricsPhases(t *testing.T) {
	c := NewCollector(1)
	tm := c.T(0)
	tm.Begin(PhaseBuildSort)
	time.Sleep(2 * time.Millisecond)
	tm.Begin(PhaseProbe)
	time.Sleep(time.Millisecond)
	tm.End()
	res := c.Snapshot("x", 100, int64(5*time.Millisecond))
	if res.PhaseNs[PhaseBuildSort] < int64(time.Millisecond) {
		t.Fatalf("build phase too short: %d", res.PhaseNs[PhaseBuildSort])
	}
	if res.PhaseNs[PhaseProbe] <= 0 {
		t.Fatal("probe phase missing")
	}
	if res.PhaseNs[PhaseWait] != 0 {
		t.Fatal("no wait recorded")
	}
}

func TestMatchesAndLatency(t *testing.T) {
	c := NewCollector(2)
	c.T(0).Matches(10, 100, 90) // latency 10
	c.T(1).Matches(5, 200, 50)  // latency 150
	c.T(1).Matches(0, 0, 0)     // ignored
	res := c.Snapshot("x", 30, 1000)
	if res.Matches != 15 {
		t.Fatalf("matches = %d", res.Matches)
	}
	if res.LastMatchMs != 200 {
		t.Fatalf("last match = %d", res.LastMatchMs)
	}
	// throughput = inputs / last match ms
	if res.ThroughputTPM != 30.0/200.0 {
		t.Fatalf("tpm = %f", res.ThroughputTPM)
	}
	if res.LatencyMaxMs < 140 {
		t.Fatalf("max latency = %d, want ~150", res.LatencyMaxMs)
	}
	if res.TimeToFrac(0.5) > 100 {
		t.Fatalf("half the matches landed by 100ms, got %d", res.TimeToFrac(0.5))
	}
}

func TestNegativeLatencyClamps(t *testing.T) {
	c := NewCollector(1)
	c.T(0).Matches(1, 50, 80) // emission before arrival: clamp to 0
	res := c.Snapshot("x", 2, 10)
	if res.LatencyMaxMs != 0 {
		t.Fatalf("latency = %d, want 0", res.LatencyMaxMs)
	}
}

func TestMemAccounting(t *testing.T) {
	c := NewCollector(1)
	c.MemAdd(100)
	c.MemAdd(200)
	c.MemSampleNow(1)
	c.MemAdd(-150)
	c.MemSampleNow(2)
	res := c.Snapshot("x", 1, 1)
	if res.MemPeakBytes != 300 {
		t.Fatalf("peak = %d, want 300", res.MemPeakBytes)
	}
	if len(res.MemCurve) != 2 || res.MemCurve[1].Bytes != 150 {
		t.Fatalf("curve = %+v", res.MemCurve)
	}
}

func TestCPUUtilBounds(t *testing.T) {
	c := NewCollector(1)
	tm := c.T(0)
	tm.Begin(PhaseProbe)
	time.Sleep(2 * time.Millisecond)
	tm.End()
	res := c.Snapshot("x", 1, int64(2*time.Millisecond))
	if res.CPUUtil <= 0 || res.CPUUtil > 1 {
		t.Fatalf("cpu util = %f", res.CPUUtil)
	}
}

func TestPhaseNames(t *testing.T) {
	want := []string{"wait", "partition", "build/sort", "merge", "probe", "others"}
	for i, p := range Phases() {
		if p.String() != want[i] {
			t.Fatalf("phase %d = %q, want %q", i, p.String(), want[i])
		}
	}
	if Phase(99).String() != "?" {
		t.Fatal("out-of-range phase must print ?")
	}
}

func TestAddPhaseNs(t *testing.T) {
	c := NewCollector(1)
	c.T(0).AddPhaseNs(PhaseMerge, 12345)
	res := c.Snapshot("x", 1, 1)
	if res.PhaseNs[PhaseMerge] != 12345 {
		t.Fatalf("merge ns = %d", res.PhaseNs[PhaseMerge])
	}
}

// TestCollectorResetEqualsNew: after Reset a collector snapshots exactly
// as a new one does — every worker's phases, histograms and last-match
// time, the memory gauge, peak and samples are back to zero — and then
// records like a new one.
func TestCollectorResetEqualsNew(t *testing.T) {
	dirty := func(c *Collector, k int64) {
		for tid := 0; tid < c.Threads(); tid++ {
			tm := c.T(tid)
			tm.Begin(PhaseProbe) // left open: Reset must close it
			tm.AddPhaseNs(PhaseMerge, k*7)
			tm.Matches(k, k*30, k*10)
			tm.Latencies(40, k, k*50)
			tm.Emitted(k, 3, k*60)
		}
		c.MemAdd(k * 4096)
		c.MemSampleNow(k)
		c.MemAdd(-k * 1024)
	}
	script := func(c *Collector) Result {
		c.T(1).AddPhaseNs(PhaseBuildSort, 11)
		c.T(0).Matches(5, 20, 3)
		c.MemAdd(64)
		c.MemSampleNow(2)
		return c.Snapshot("X", 10, 1000)
	}

	used := NewCollector(2)
	dirty(used, 9)
	used.Reset()
	if got, want := used.Snapshot("X", 10, 1000), NewCollector(2).Snapshot("X", 10, 1000); !reflect.DeepEqual(got, want) {
		t.Errorf("after Reset: %+v\nnew collector: %+v", got, want)
	}
	dirty(used, 4)
	used.Reset()
	if got, want := script(used), script(NewCollector(2)); !reflect.DeepEqual(got, want) {
		t.Errorf("script on a reset collector: %+v\non a new one: %+v", got, want)
	}
}
