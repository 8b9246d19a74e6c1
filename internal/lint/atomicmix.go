package lint

import (
	"fmt"
	"sort"
)

// AtomicMix flags fields accessed both through sync/atomic and through
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
type AtomicMix struct{}

// Name implements ProgramAnalyzer.
func (AtomicMix) Name() string { return "atomicmix" }

// Doc implements ProgramAnalyzer.
func (AtomicMix) Doc() string {
	return "no field is accessed both through sync/atomic and through plain loads/stores outside a common latch"
}

// Severity implements ProgramAnalyzer.
func (AtomicMix) Severity() Severity { return Error }

// CheckProgram implements ProgramAnalyzer.
func (AtomicMix) CheckProgram(prog *Program) []Finding {
	ls := prog.lockSets()
	type fieldKey struct{ owner, field string }
	groups := map[fieldKey][]*lsAccess{}
	var keys []fieldKey
	for _, a := range ls.accesses {
		k := fieldKey{a.owner, a.field}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], a)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].owner != keys[j].owner {
			return keys[i].owner < keys[j].owner
		}
		return keys[i].field < keys[j].field
	})

	var out []Finding
	for _, k := range keys {
		var atomics, plains []*lsAccess
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
		common := ls.effectiveHeld(atomics[0])
		for _, a := range atomics[1:] {
			eff := ls.effectiveHeld(a)
			var keep []string
			for _, l := range common {
				if containsStr(eff, l) {
					keep = append(keep, l)
				}
			}
			common = keep
		}
		for _, p := range plains {
			if len(common) > 0 && intersectsStr(ls.effectiveHeld(p), common) {
				continue
			}
			verb := "read"
			if p.write {
				verb = "written"
			}
			out = append(out, Finding{
				Rule: "atomicmix",
				Sev:  Error,
				Pos:  p.fset.Position(p.pos),
				Msg: fmt.Sprintf("%s.%s is accessed through sync/atomic (%d sites) but %s plainly here with no latch ordering it against them; mixed atomic/plain access corrupts silently — use atomic ops for every access, or guard them all with one latch, or justify with //lint:allow atomicmix",
					k.owner, k.field, len(atomics), verb),
			})
		}
	}
	return out
}
