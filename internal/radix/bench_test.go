package radix

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/tuple"
)

// BenchmarkPartition sweeps the radix-bit knob at kernel level — the
// partitioning half of Figure 18's trade-off.
func BenchmarkPartition(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	rel := make(tuple.Relation, 131_072)
	for i := range rel {
		rel[i] = tuple.Tuple{Key: rng.Int32N(1 << 24), Payload: int32(i)}
	}
	for _, bits := range []int{4, 8, 10, 12, 14} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			p := NewPartitioner()
			b.SetBytes(int64(len(rel)) * 16)
			for i := 0; i < b.N; i++ {
				p.Partition(rel, bits, nil, 0)
			}
		})
	}
}
