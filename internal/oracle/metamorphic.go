package oracle

import (
	"fmt"

	iawj "repro"
	"repro/internal/tuple"
)

// Metamorphic checks assert relations between runs instead of comparing
// against a known answer — they hold even where the oracle itself might
// share a blind spot with the implementation (e.g. a wrong shared notion
// of the window close). Each check reruns the case's algorithm on
// transformed inputs and verifies the transformed output relation:
//
//	symmetry    R⋈S mirrored equals S⋈R
//	split       the window's join equals the merge of its quadrant joins
//	relabel     a key bijection changes keys but no pairing
//	shift       a window that opens later in time joins the same
//
// CheckMetamorphic runs all four; a failure embeds the case seed string.
func CheckMetamorphic(c Case) error {
	r, s, windowMs, atRest, err := c.inputs()
	if err != nil {
		return fmt.Errorf("[%s] %w", c, err)
	}
	base, _, err := runJoin(c, r, s, windowMs, atRest)
	if err != nil {
		return fmt.Errorf("[%s] meta base run: %w", c, err)
	}
	if err := checkSymmetry(c, r, s, windowMs, atRest, base); err != nil {
		return err
	}
	if err := checkWindowSplit(c, r, s, base); err != nil {
		return err
	}
	if err := checkRelabel(c, r, s, windowMs, atRest, base); err != nil {
		return err
	}
	return checkShift(c, r, s, windowMs, atRest, base)
}

// checkSymmetry joins the streams in swapped roles. The intra-window join
// is symmetric up to exchanging the payload columns, so the mirror run's
// full fingerprint must equal the base run's swapped fingerprint (and
// vice versa).
func checkSymmetry(c Case, r, s tuple.Relation, windowMs int64, atRest bool, base Digest) error {
	mirror, _, err := runJoin(c, s, r, windowMs, atRest)
	if err != nil {
		return fmt.Errorf("[%s] meta symmetry run: %w", c, err)
	}
	if !mirror.Full.Equal(base.Swapped) || !mirror.Swapped.Equal(base.Full) {
		return fmt.Errorf("[%s] symmetry: S⋈R digest %s, want mirror of R⋈S %s", c, mirror.Full, base.Swapped)
	}
	return nil
}

// checkWindowSplit splits both inputs at the median timestamp and joins
// the four quadrants separately (at rest — sub-windows have no arrival
// schedule of their own). Every result pair lives in exactly one
// quadrant, and the fingerprint is a commutative fold, so the merged
// quadrant digests must reproduce the whole-window digest exactly. This
// is the concatenation invariance that catches results leaking across a
// split — the failure mode of incremental window-state maintenance.
func checkWindowSplit(c Case, r, s tuple.Relation, base Digest) error {
	cut := (r.MaxTS() + s.MaxTS()) / 2
	r1, r2 := splitAt(r, cut)
	s1, s2 := splitAt(s, cut)
	var merged Digest
	for _, q := range [][2]tuple.Relation{{r1, s1}, {r1, s2}, {r2, s1}, {r2, s2}} {
		d, _, err := runJoin(c, q[0], q[1], 0, true)
		if err != nil {
			return fmt.Errorf("[%s] meta split run: %w", c, err)
		}
		merged.Merge(d)
	}
	if !merged.Full.Equal(base.Full) {
		return fmt.Errorf("[%s] window split: merged quadrants %s, whole window %s", c, merged.Full, base.Full)
	}
	return nil
}

// relabelKey is a bijection on int32 (odd multiplier modulo 2^32 plus a
// constant): it changes every key but collapses or splits none.
func relabelKey(k int32) int32 { return int32(uint32(k)*0x9e3779b1 + 0x7f4a7c15) }

// checkRelabel reruns the join with every key pushed through the
// bijection. Which tuples pair up — and with what timestamps and
// payloads — is invariant, so the keyless digest must not move.
func checkRelabel(c Case, r, s tuple.Relation, windowMs int64, atRest bool, base Digest) error {
	relabel := func(rel tuple.Relation) tuple.Relation {
		out := rel.Clone()
		for i := range out {
			out[i].Key = relabelKey(out[i].Key)
		}
		return out
	}
	d, _, err := runJoin(c, relabel(r), relabel(s), windowMs, atRest)
	if err != nil {
		return fmt.Errorf("[%s] meta relabel run: %w", c, err)
	}
	if !d.Keyless.Equal(base.Keyless) {
		return fmt.Errorf("[%s] key relabeling: keyless digest %s, want %s", c, d.Keyless, base.Keyless)
	}
	return nil
}

// checkShift moves both streams three window lengths into the future and
// joins them through the windowed driver as the one tumbling window they
// fill. The driver hands the join the shifted tuples in place plus the
// window start, and every timestamp reader subtracts it: arrival replays
// the window in isolation and emitted timestamps are window-relative, so
// the digest must not move. This is the zero-copy offset path of
// stream.go under the same schedules as every other cell.
func checkShift(c Case, r, s tuple.Relation, windowMs int64, atRest bool, base Digest) error {
	length := windowMs + 1 // [0, windowMs] fits one window
	shift := func(rel tuple.Relation) tuple.Relation {
		out := rel.Clone()
		for i := range out {
			out[i].TS += 3 * length
		}
		return out
	}
	sink := NewSink()
	spec := iawj.WindowSpec{Kind: iawj.Tumbling, LengthMs: length}
	if _, err := iawj.JoinWindowed(shift(r), shift(s), spec, c.config(sink, 0, atRest)); err != nil {
		return fmt.Errorf("[%s] meta shift run: %w", c, err)
	}
	if d := sink.Digest(); !d.Full.Equal(base.Full) {
		return fmt.Errorf("[%s] time shift: windowed digest %s, want %s", c, d.Full, base.Full)
	}
	return nil
}

// splitAt partitions a time-ordered relation into the tuples strictly
// before ts and from ts on. Both halves alias the input.
func splitAt(rel tuple.Relation, ts int64) (lo, hi tuple.Relation) {
	i := 0
	for i < len(rel) && rel[i].TS < ts {
		i++
	}
	return rel[:i], rel[i:]
}
