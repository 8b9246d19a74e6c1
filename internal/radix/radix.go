// Package radix implements the radix partitioning used by the Parallel
// Radix Join (PRJ).
//
// Following Kim et al. and the Balkesen et al. benchmark, both relations
// are subdivided on the low-order bits of the hashed key so that each
// resulting sub-relation of the build side fits in cache, after which a
// cache-resident hash join runs per partition. The number of radix bits
// (#r) is the algorithm's key tuning knob (Figure 18): more bits mean a
// higher partitioning cost but smaller, cache-friendlier partitions.
//
// Partitioning is single-pass at every #r: the Partitioner (swwcb.go)
// scatters directly while the open write cursors fit the cache hierarchy
// and through software write-combining buffers beyond.
package radix

const tupleBytes = 16

// Fanout returns the number of partitions produced for a bit count.
func Fanout(bits int) int { return 1 << bits }
