package lint

import (
	"fmt"
	"slices"
)

// atomicMix flags fields accessed both through sync/atomic and through
// plain loads or stores — the classic silent-corruption bug in lock-free
// structures. Two shapes are caught:
//
//   - a plain-typed field driven by atomic.AddInt64(&s.n, ...) in one
//     place and `s.n++` or `x := s.n` in another: the plain side tears,
//     misses published values, and invalidates the atomic side's
//     ordering guarantees;
//   - an atomic.* value-type field (falseshare's pinned type table
//     decides what counts) copied or assigned plainly instead of through
//     its Load/Store methods.
//
// A plain access is accepted when it shares a latch with every atomic
// site (rare but legal: the atomics are then redundant, not racy) or when
// the publication heuristic proves it is constructor/init code. Taking a
// field's address outside a sync/atomic call is deliberately ignored —
// `h := &t.heads[i]` followed by h.Load() is the normal idiom and the
// alias's uses are out of syntactic reach.
var atomicMix = Rule{
	Name:     "atomicmix",
	Doc:      "no field is accessed both through sync/atomic and through plain loads/stores outside a common latch",
	Contract: "A word accessed atomically anywhere must be accessed atomically everywhere; mixing atomic.Load with plain reads is undefined under the Go memory model even when it happens to work on amd64.",
	Sev:      Error,
	Check:    checkAtomicMix,
}

func checkAtomicMix(prog *Program) []Finding {
	lf := prog.lockFacts()
	keys, groups := lf.fieldGroups(func(*fieldAccess) bool { return true })

	var out []Finding
	for _, k := range keys {
		var atomics, plains []*fieldAccess
		for _, a := range groups[k] {
			switch {
			case a.atomic:
				atomics = append(atomics, a)
			case !a.exempt:
				plains = append(plains, a)
			}
		}
		if len(atomics) == 0 || len(plains) == 0 {
			continue
		}
		// The only latch that can order a plain access against the atomic
		// sites is one held at every atomic site.
		common := lf.effectiveHeld(atomics[0])
		for _, a := range atomics[1:] {
			eff := lf.effectiveHeld(a)
			var keep []string
			for _, l := range common {
				if slices.Contains(eff, l) {
					keep = append(keep, l)
				}
			}
			common = keep
		}
		for _, p := range plains {
			if len(common) > 0 && intersectsStr(lf.effectiveHeld(p), common) {
				continue
			}
			verb := "read"
			if p.write {
				verb = "written"
			}
			out = append(out, Finding{
				Pos: p.pos,
				Msg: fmt.Sprintf("%s.%s is accessed through sync/atomic (%d sites) but %s plainly here with no latch ordering it against them; mixed atomic/plain access corrupts silently — use atomic ops for every access, or guard them all with one latch, or justify with //lint:allow atomicmix",
					k[0], k[1], len(atomics), verb),
			})
		}
	}
	return out
}
