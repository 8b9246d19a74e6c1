package core

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/tuple"
)

// benchNowMs is where the benchmark clock stands: 981–1000 ms after the
// arrival times of benchPairs, latencies that straddle one histogram bucket
// edge (992), so that about every other match ends a latency run — neither
// the all-alike case of data at rest nor the all-different one.
const benchNowMs = 1000

// benchPairs is one probe batch worth of (stored, probe) pairs on a
// high-duplication key: 1024 probes, 16 stored tuples each, arriving
// within 20 ms of each other.
func benchPairs() []tuple.Tuple {
	pairs := make([]tuple.Tuple, 0, 2*16*1024)
	for p := 0; p < 1024; p++ {
		probe := tuple.Tuple{TS: int64(p % 20), Key: int32(p), Payload: int32(p)}
		for s := 0; s < 16; s++ {
			pairs = append(pairs, tuple.Tuple{TS: int64((p*7 + s*13) % 20), Key: int32(p), Payload: int32(s)}, probe)
		}
	}
	return pairs
}

// benchSinkVariants runs feed, which hands pairs to the sink once, in the
// two modes of a join: counting only, and materializing every result for a
// consumer that does next to nothing with it.
func benchSinkVariants(b *testing.B, feed func(k *Sink, pairs []tuple.Tuple)) {
	pairs := benchPairs()
	var seen int64
	for _, mode := range []string{"count", "emit"} {
		b.Run(mode, func(b *testing.B) {
			now := clock.NewManual()
			now.Set(benchNowMs)
			ctx := &ExecContext{Threads: 1, Clock: now, M: metrics.NewCollector(1)}
			if mode == "emit" {
				ctx.Out = NewOutbox(func(jr tuple.JoinResult) { seen += jr.TS }, nil)
			}
			k := NewSink(ctx, 0)
			b.SetBytes(int64(len(pairs)) * tuple.Bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Refresh()
				feed(k, pairs)
			}
			k.Close()
			ctx.Out.Close()
		})
	}
	_ = seen
}

// BenchmarkKernelSinkMatch is the sink's single-match entry over a probe
// batch, the baseline of the sink rows in BENCH_3.json.
func BenchmarkKernelSinkMatch(b *testing.B) {
	benchSinkVariants(b, func(k *Sink, pairs []tuple.Tuple) {
		for ps := pairs; len(ps) >= 2; ps = ps[2:] {
			k.Match(ps[0], ps[1])
		}
	})
}

// BenchmarkKernelSinkRun is the same batch through the run form.
func BenchmarkKernelSinkRun(b *testing.B) {
	benchSinkVariants(b, func(k *Sink, pairs []tuple.Tuple) { k.Pairs(pairs, true) })
}
