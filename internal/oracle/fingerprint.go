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
//     workload shapes, warm and fresh pools, and batch sizes.
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
	"math/bits"

	"repro/internal/tuple"
)

// Fingerprint is an order-independent digest of a join-result multiset:
// the cardinality plus commutative (sum, xor) folds of a 64-bit hash of
// each result tuple. Because the folds are commutative and associative,
// the fingerprint of a union of disjoint result sets is the Merge of their
// fingerprints — the property the window-split metamorphic check exploits
// — and emission order (which parallel schedules scramble) is irrelevant.
//
// A mismatch in any field proves the multisets differ. Modelled as a
// random function, the hash makes two different multisets with equal Count
// agree on Sum with probability 2⁻⁶⁴ (2^(k−64) when every multiplicity
// differs by a multiple of 2^k). It is not keyed against an adversary:
// the kernels it checks are not one.
type Fingerprint struct {
	Count int64
	Sum   uint64
	Xor   uint64
}

// Add folds one join result into the fingerprint. Its hash is two
// dependent multiplies over the fields as unsigned bit patterns, keyed by
// wyhash's constants K0…K3 (in order below), with mum(a, b) the 128-bit
// product's halves folded (wyhash's mixer):
//
//	mum(mum(TS⊕K0, (Key<<32 | PayloadR)⊕K1) ⊕ K2, PayloadS⊕K3)
//
// PayloadR and PayloadS enter at different positions, so exchanging them
// within a result moves the hash. mum is blind where a factor is zero: a
// result with TS = K0 hashes the same whatever its Key and PayloadR, one
// with (Key<<32 | PayloadR) = K1 whatever its TS, and one whose inner
// product is K2 whatever its PayloadS. PayloadS⊕K3 is never zero: K3 has
// bits above 32. Both multiplies are written out, which keeps Add within
// the inliner's budget: Sink.Emit's method value and Reference's loop
// call no function per result.
//
//iawj:inline
func (f *Fingerprint) Add(jr tuple.JoinResult) {
	hi, lo := bits.Mul64(uint64(jr.TS)^0xa0761d6478bd642f, (uint64(uint32(jr.Key))<<32|uint64(uint32(jr.PayloadR)))^0xe7037ed1a0b428db)
	hi, lo = bits.Mul64(hi^lo^0x8ebc6af09c88c6e3, uint64(uint32(jr.PayloadS))^0x589965cc75374cc3)
	h := hi ^ lo
	f.Count++
	f.Sum += h
	f.Xor ^= h
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

// Digest is the fingerprint of every emitted result (Full), the
// differential identity every algorithm must reproduce.
type Digest struct {
	Full Fingerprint
}

// AddResult folds one join result into the digest.
func (d *Digest) AddResult(jr tuple.JoinResult) { d.Full.Add(jr) }

// Merge folds the digest of a disjoint result set into d.
func (d *Digest) Merge(o Digest) { d.Full.Merge(o.Full) }

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

// Digest returns the folded fingerprint; call after the join completes.
func (s *Sink) Digest() Digest { return s.d }
