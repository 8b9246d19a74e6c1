package eager

import (
	"fmt"
	"testing"

	"repro/internal/pool"
	"repro/internal/tuple"
)

// BenchmarkKernelJBRoute times one JB worker's pull scans over a window of
// distinct keys — routing every tuple, staging and making the status
// writes of the ones it owns — at Threads 2, g = 1, half the window in R
// and half in S. Each iteration takes the status table from a pool and
// clears it, as a join does, so the table's set-up is in the figure. It
// reports ns per scanned tuple: 2^12 keys keep the table in L1/L2, 2^21
// give it rest_unique's 32 MB.
func BenchmarkKernelJBRoute(b *testing.B) {
	for _, keys := range []int{1 << 12, 1 << 21} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			rel := make(tuple.Relation, keys)
			for i := range rel {
				rel[i] = tuple.Tuple{Key: int32(uint32(i) * 2654435761)} // a bijection: distinct
			}
			p := pool.New()
			buf := make([]tuple.Tuple, 0, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := newJB(2, 0, 1, keys, p.U32)
				for _, c := range []cursor{{rel: rel[:keys/2], side: sideR}, {rel: rel[keys/2:], side: sideS}} {
					for !c.done() {
						buf, _ = c.batch(buf[:0], cap(buf), 0, true, &d)
					}
				}
				p.PutU32(d.status.cells)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/tuple")
		})
	}
}
