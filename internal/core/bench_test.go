package core

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/hashtable"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// BenchmarkPhaseChange is one phase change as the joins make it,
// ExecContext.Begin: untraced, and with the worker's span ring attached,
// which fills and coarsens as a long traced run's does.
func BenchmarkPhaseChange(b *testing.B) {
	for _, mode := range []string{"untraced", "traced"} {
		b.Run(mode, func(b *testing.B) {
			ctx := &ExecContext{Threads: 1, M: metrics.NewCollector(1)}
			if mode == "traced" {
				trace.NewRecorder().StartRun("BENCH", ctx.M)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.Begin(0, metrics.Phase(i&3))
			}
			ctx.EndPhase(0)
		})
	}
}

// benchNowMs is where the benchmark clock stands: 981–1000 ms after the
// arrival times of benchHits, latencies that straddle one histogram bucket
// edge (992), so that about every other match ends a latency run — neither
// the all-alike case of data at rest nor the all-different one.
const benchNowMs = 1000

// benchHits is one probe batch on a high-duplication key: 1024 probes, 16
// stored tuples each, arriving within 20 ms of each other.
func benchHits() []hashtable.Hit {
	hits := make([]hashtable.Hit, 1024)
	for p := range hits {
		stored := make([]tuple.Tuple, 16)
		for s := range stored {
			stored[s] = tuple.Tuple{TS: int64((p*7 + s*13) % 20), Key: int32(p), Payload: int32(s)}
		}
		hits[p] = hashtable.Hit{Probe: tuple.Tuple{TS: int64(p % 20), Key: int32(p), Payload: int32(p)}, Stored: stored}
	}
	return hits
}

// benchSinkVariants runs feed, which hands the batch to the sink once, in
// the two modes of a join: counting only, and materializing every result
// for a consumer that does next to nothing with it.
func benchSinkVariants(b *testing.B, feed func(k *Sink, hits []hashtable.Hit)) {
	hits := benchHits()
	var seen int64
	for _, mode := range []string{"count", "emit"} {
		b.Run(mode, func(b *testing.B) {
			now := clock.NewManual()
			now.Set(benchNowMs)
			ctx := &ExecContext{Threads: 1, Clock: now, M: metrics.NewCollector(1)}
			if mode == "emit" {
				ctx.Out = NewOutbox(func(jr tuple.JoinResult) { seen += jr.TS }, pool.New())
			}
			k := NewSink(ctx, 0)
			b.SetBytes(int64(len(hits)*len(hits[0].Stored)) * 2 * tuple.Bytes) // both tuples of every match
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Refresh()
				feed(k, hits)
			}
			k.Close()
		})
	}
	_ = seen
}

// BenchmarkKernelSinkMatch is the sink's single-match entry over a probe
// batch, the baseline of the sink rows in BENCH_3.json.
func BenchmarkKernelSinkMatch(b *testing.B) {
	benchSinkVariants(b, func(k *Sink, hits []hashtable.Hit) {
		for _, h := range hits {
			for _, s := range h.Stored {
				k.Match(s, h.Probe)
			}
		}
	})
}

// BenchmarkKernelSinkRun is the same batch through the run form.
func BenchmarkKernelSinkRun(b *testing.B) {
	benchSinkVariants(b, func(k *Sink, hits []hashtable.Hit) { k.Hits(hits, true) })
}

// BenchmarkKernelSinkRect is the same batch as merge-join rectangles of the
// N×1 shape — the stored run as the R side, the probe as a one-tuple S side
// — which a column walk books at the run form's cost per match, where a
// row walk paid the single-match entry's and more.
func BenchmarkKernelSinkRect(b *testing.B) {
	benchSinkVariants(b, func(k *Sink, hits []hashtable.Hit) {
		for _, h := range hits {
			one := [1]tuple.Tuple{h.Probe}
			k.Rect(h.Stored, one[:])
		}
	})
}
