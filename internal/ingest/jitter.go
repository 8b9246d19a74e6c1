package ingest

import (
	"sort"

	"repro/internal/tuple"
	"repro/internal/zipf"
)

// JitterTS returns a copy of rel with every arrival timestamp shifted
// forward by a deterministic pseudo-random amount in [0, maxMs], then
// re-sorted into arrival order. Keys and payloads are untouched, so the
// join *content* — which pairs match, and with what payloads — is
// preserved exactly; only the arrival schedule moves. The conformance
// harness uses this to model ingest-side delivery jitter (network and
// queueing delay ahead of the join): every algorithm and the reference
// oracle see the same jittered input, so their result fingerprints must
// still agree even though batching and interleaving shift.
//
// The shift depends on (seed, position, tuple content), so two tuples
// sharing a timestamp generally land apart — reordering ties is precisely
// the schedule variation single-seed generators never produce.
func JitterTS(rel tuple.Relation, maxMs int64, seed uint64) tuple.Relation {
	out := rel.Clone()
	if maxMs <= 0 || len(out) == 0 {
		return out
	}
	for i := range out {
		h := zipf.Mix64(seed ^ uint64(i)<<32 ^ uint64(uint32(out[i].Key)))
		out[i].TS += int64(h % uint64(maxMs+1))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}
