package metrics

// OutputStats is the traffic of a join's output path (core.Outbox), in
// result batches: Delivered were handed to the consumer, Parked of them
// were left by a worker that found another delivering and handed over by
// that one, Waits counts flushes that found the backlog at its bound and
// had to wait for room. PeakBacklog is the most batches ever parked at
// once. A slow consumer shows as Parked close to Delivered, PeakBacklog at
// the bound and Waits above zero; all are zero for a count-only join.
type OutputStats struct {
	Delivered, Parked, Waits int64
	PeakBacklog              int64
}

// Since returns the traffic between the earlier reading prev and s; the
// peak backlog is that of s.
func (s OutputStats) Since(prev OutputStats) OutputStats {
	s.Delivered -= prev.Delivered
	s.Parked -= prev.Parked
	s.Waits -= prev.Waits
	return s
}
