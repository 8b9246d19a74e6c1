// Package oracle is the conformance subsystem guarding the repository's
// central claim: eight very different parallelizations of the intra-window
// join — lazy NPJ/PRJ/MWAY/MPASS and eager SHJ/PMJ under the JM/JB
// distribution schemes — all compute the *same* join of Definition 2.
//
// Three layers of checking back that claim (TESTING.md has the full
// story):
//
//   - Differential: every algorithm's emitted output is reduced to an
//     order-independent multiset fingerprint and compared against a
//     reference nested-loop oracle, across a matrix of thread counts,
//     workload shapes, pooled/pool-less state, and batch sizes.
//   - Metamorphic: properties that must hold without knowing the right
//     answer — join symmetry, window-split/concatenation invariance, and
//     key-relabeling invariance.
//   - Schedule perturbation: arrival schedules are varied with ingest
//     jitter (ingest.JitterTS) and adversarial virtual clocks
//     (clock.Perturb), so eager interleavings actually differ run to run
//     under the race detector.
//
// Every failure is reported with a single replayable seed string
// (Case.String); `iawjconform -seed <string>` reruns the exact cell.
package oracle

import (
	"fmt"

	"repro/internal/tuple"
)

// Fingerprint is an order-independent digest of a join-result multiset:
// the cardinality plus commutative (sum, xor) folds of a 64-bit hash of
// each result tuple. Because the folds are commutative and associative,
// the fingerprint of a union of disjoint result sets is the Merge of their
// fingerprints — the property the window-split metamorphic check exploits
// — and emission order (which parallel schedules scramble) is irrelevant.
//
// A mismatch in any field proves the multisets differ. Collisions require
// adversarially chosen payloads against splitmix64 in two independent
// folds simultaneously; for conformance testing of non-adversarial
// kernels this is ample (and the cardinality is checked exactly anyway).
type Fingerprint struct {
	Count int64
	Sum   uint64
	Xor   uint64
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashResult digests one join result, and is the written definition of all
// three digests: a chain of mix64 over the timestamp, then (withKey) the
// key, then both payloads. withKey=false drops the join key — the keyless
// digest is invariant under key relabeling, the metamorphic check's handle
// on bijective key maps. Payloads can be passed swapped to digest the
// mirror join R⋈S vs S⋈R. TestAddResultEqualsDefinition holds
// Digest.AddResult, which shares the chain's prefixes, to this function.
func hashResult(ts int64, key, pR, pS int32, withKey bool) uint64 {
	h := mix64(uint64(ts) ^ 0x5ca1ab1e)
	if withKey {
		h = mix64(h ^ uint64(uint32(key)))
	}
	h = mix64(h ^ uint64(uint32(pR))<<32 ^ uint64(uint32(pS)))
	return h
}

// add folds one result hash into the fingerprint.
func (f *Fingerprint) add(h uint64) {
	f.Count++
	f.Sum += h
	f.Xor ^= h
}

// Add folds one join result into the fingerprint.
func (f *Fingerprint) Add(jr tuple.JoinResult) {
	f.add(hashResult(jr.TS, jr.Key, jr.PayloadR, jr.PayloadS, true))
}

// Merge folds g into f: the fingerprint of the multiset union.
func (f *Fingerprint) Merge(g Fingerprint) {
	f.Count += g.Count
	f.Sum += g.Sum
	f.Xor ^= g.Xor
}

// Equal reports whether two fingerprints are identical.
func (f Fingerprint) Equal(g Fingerprint) bool { return f == g }

// String renders the fingerprint as count:sum:xor for failure messages.
func (f Fingerprint) String() string {
	return fmt.Sprintf("%d:%016x:%016x", f.Count, f.Sum, f.Xor)
}

// Digest carries the three fingerprints the sink computes in one pass.
type Digest struct {
	// Full digests (ts, key, payloadR, payloadS) — the differential
	// identity every algorithm must reproduce.
	Full Fingerprint
	// Keyless drops the key: invariant under key relabeling.
	Keyless Fingerprint
	// Swapped digests with payloads exchanged: the Full digest of the
	// mirror join S⋈R, used by the symmetry check.
	Swapped Fingerprint
}

// AddResult folds one join result into all three fingerprints. Every
// emitted result of every verified run crosses it, so it hashes each shared
// prefix of hashResult's chain once — the timestamp for all three,
// timestamp-then-key for Full and Swapped: five mix64, not eight.
func (d *Digest) AddResult(jr tuple.JoinResult) {
	ts := mix64(uint64(jr.TS) ^ 0x5ca1ab1e)
	keyed := mix64(ts ^ uint64(uint32(jr.Key)))
	pR, pS := uint64(uint32(jr.PayloadR)), uint64(uint32(jr.PayloadS))
	d.Full.add(mix64(keyed ^ pR<<32 ^ pS))
	d.Keyless.add(mix64(ts ^ pR<<32 ^ pS))
	d.Swapped.add(mix64(keyed ^ pS<<32 ^ pR))
}

// Merge folds the digests of a disjoint result set into d.
func (d *Digest) Merge(o Digest) {
	d.Full.Merge(o.Full)
	d.Keyless.Merge(o.Keyless)
	d.Swapped.Merge(o.Swapped)
}

// Sink is a Config.Emit target that digests emitted results. It takes no
// lock: Emit is never entered concurrently (iawj.Config.Emit), and the
// conformance matrix running every cell through this sink under the race
// detector is the standing check of that contract — a second goroutine
// inside Emit would be reported as a race on the digest.
type Sink struct {
	d Digest
}

// NewSink returns an empty digest sink.
func NewSink() *Sink { return &Sink{} }

// Emit implements the Config.Emit contract.
func (s *Sink) Emit(jr tuple.JoinResult) { s.d.AddResult(jr) }

// Digest returns the folded fingerprints; call after the join completes.
func (s *Sink) Digest() Digest { return s.d }
