package metrics

// PoolKind names one kind of state the window pool (internal/pool)
// recycles. Like Phase for time, it is the shared taxonomy the pool counts
// in and the journal and /metrics report in.
type PoolKind int

// The pooled kinds: single-writer and latched hash tables, SWWCB
// partitioners, sized tuple buffers (run copies, merge outputs, sort
// scratch, pull batches), the hit buffers of probe batches, uint32 arrays
// (the JB router's status table, ADAPTIVE's profile scratch), the result
// batches of the output path, and the metrics collectors of whole runs.
const (
	PoolTable PoolKind = iota
	PoolShared
	PoolPartitioner
	PoolTuples
	PoolHits
	PoolU32
	PoolResults
	PoolCollector
	NumPoolKinds
)

var poolKindNames = [NumPoolKinds]string{"table", "shared", "partitioner", "tuples", "hits", "u32", "results", "collector"}

// String names the kind as the journal and /metrics label it.
func (k PoolKind) String() string {
	if k < 0 || k >= NumPoolKinds {
		return "?"
	}
	return poolKindNames[k]
}

// PoolStats is the pool's traffic: a hit is an acquire served from a
// freelist, a miss one that had to allocate. RetainedBytes is what the
// freelists hold at the moment of the reading.
type PoolStats struct {
	Hits, Misses  [NumPoolKinds]int64
	RetainedBytes int64
}

// Since returns the traffic between the earlier reading prev and s; the
// retained bytes are those of s.
func (s PoolStats) Since(prev PoolStats) PoolStats {
	for k := range s.Hits {
		s.Hits[k] -= prev.Hits[k]
		s.Misses[k] -= prev.Misses[k]
	}
	return s
}
