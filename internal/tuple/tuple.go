// Package tuple defines the narrow stream-tuple model shared by every
// intra-window-join algorithm in this repository.
//
// Following the dataset structure of Balkesen et al. (and Section 4.2.2 of
// the paper), a tuple is a narrow <key, payload> pair plus the arrival
// timestamp that reflects when it reaches the system. Relations are
// time-ordered slices of tuples; joins are evaluated over a single window.
package tuple

import (
	"fmt"
	"sort"
)

// Tuple is one stream element x = {t, k, v}.
//
// TS is the arrival timestamp in simulated milliseconds from the start of
// the window (tuples are time ordered). Key is the 32-bit join key and
// Payload the 32-bit payload, mirroring the 64-bit-wide narrow tuples the
// paper uses to enable vectorized processing.
type Tuple struct {
	TS      int64
	Key     int32
	Payload int32
}

// Bytes is the in-memory size of one Tuple (8-byte TS, 4-byte key,
// 4-byte payload) — the unit every bytes-processed throughput account in
// the benchmarks and BENCH_*.json files is defined in.
const Bytes = 16

// Relation is a chronologically ordered list of tuples from one input
// stream, restricted to the window under study.
type Relation []Tuple

// Code packs the key and an index into a single uint64 sort code with the
// key in the high bits, so sorting codes sorts tuples by key while keeping
// a back-pointer to the original position. Runs per tuple in the sort
// paths; must stay inlinable (LINTING.md §inlinegate).
//
//iawj:inline
func Code(key int32, idx uint32) uint64 {
	return uint64(uint32(key))<<32 | uint64(idx)
}

// CodeKey extracts the key from a sort code produced by Code.
func CodeKey(c uint64) int32 { return int32(uint32(c >> 32)) }

// CodeIdx extracts the original index from a sort code produced by Code.
func CodeIdx(c uint64) uint32 { return uint32(c) }

// SortByTS orders the relation chronologically. Generators emit tuples in
// arrival order already; this is a safety net for externally built inputs.
func (r Relation) SortByTS() {
	sort.Slice(r, func(i, j int) bool { return r[i].TS < r[j].TS })
}

// SortedByTS reports whether the relation is already in arrival order.
func (r Relation) SortedByTS() bool {
	for i := 1; i < len(r); i++ {
		if r[i].TS < r[i-1].TS {
			return false
		}
	}
	return true
}

// MaxTS returns the largest arrival timestamp, or 0 for an empty relation.
func (r Relation) MaxTS() int64 {
	var m int64
	for _, t := range r {
		if t.TS > m {
			m = t.TS
		}
	}
	return m
}

// Clone returns a deep copy of the relation. Algorithms that physically
// partition or sort inputs use it to leave the caller's data untouched.
func (r Relation) Clone() Relation {
	c := make(Relation, len(r))
	copy(c, r)
	return c
}

// String renders a tuple for debugging.
func (t Tuple) String() string {
	return fmt.Sprintf("{ts=%d k=%d v=%d}", t.TS, t.Key, t.Payload)
}

// JoinResult is one output tuple of the intra-window join. Per Definition 2
// the result carries max(r.ts, s.ts) as its timestamp, the shared key, and
// both payloads.
type JoinResult struct {
	TS       int64
	Key      int32
	PayloadR int32
	PayloadS int32
}

// ResultOf materializes the join output for a matching pair.
func ResultOf(r, s Tuple) JoinResult {
	ts := r.TS
	if s.TS > ts {
		ts = s.TS
	}
	return JoinResult{TS: ts, Key: r.Key, PayloadR: r.Payload, PayloadS: s.Payload}
}
