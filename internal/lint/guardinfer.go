package lint

import (
	"fmt"
	"slices"
	"strings"
)

// guardInfer is the Eraser-style static lockset rule. For every plain
// data field of a latch-carrying struct it infers the guarding mutex from
// the held-sets observed across the field's writes — locally simulated
// plus the interprocedural must-hold entry sets of the held-lock walk —
// and reports every write reached with an empty or disjoint lockset:
//
//   - a field written under a latch somewhere must be written under that
//     latch everywhere; a bare write is a data race the race detector
//     only catches on schedules that collide;
//   - a write under a different latch is worse: both sides believe they
//     are synchronized, and the disjoint locksets order nothing.
//
// The guard is the lock held at the most writes (the intersection when
// the discipline is consistent), with lexicographic tie-break for
// determinism. Fields never written under any lock carry no inferable
// discipline — stack-confined or quiesced-phase state — and are skipped;
// constructor writes are exempt via the publication heuristic (see
// lockwalk.go); atomic-typed fields belong to atomicmix. Reads are out of
// scope: the write side is where corruption starts, and flagging reads
// would double every finding.
var guardInfer = Rule{
	Name:     "guardinfer",
	Doc:      "fields of latch-carrying structs are written under their inferred guarding latch (static lockset analysis)",
	Contract: "Fields consistently accessed under one mutex are inferred to be guarded by it; an access outside that mutex is a data race the race detector only finds if the schedule cooperates. Declare intentional unguarded access with //lint:allow guardinfer.",
	Sev:      Error,
	Check:    checkGuardInfer,
}

func checkGuardInfer(prog *Program) []Finding {
	lf := prog.lockFacts()
	keys, groups := lf.fieldGroups(func(a *fieldAccess) bool {
		st := lf.structs[a.owner]
		return st.latched && st.fields[a.field] == plainField && a.write && !a.atomic && !a.exempt
	})

	var out []Finding
	for _, k := range keys {
		writes := groups[k]
		votes := map[string]int{}
		guarded := 0
		heldSets := make([][]string, len(writes))
		for i, a := range writes {
			eff := lf.effectiveHeld(a)
			heldSets[i] = eff
			if len(eff) > 0 {
				guarded++
			}
			for _, l := range eff {
				votes[l]++
			}
		}
		if guarded == 0 {
			continue // no locking discipline to infer: confined state
		}
		guard := ""
		for l, n := range votes {
			if guard == "" || n > votes[guard] || (n == votes[guard] && l < guard) {
				guard = l
			}
		}
		for i, a := range writes {
			if slices.Contains(heldSets[i], guard) {
				continue
			}
			var msg string
			if len(heldSets[i]) == 0 {
				msg = fmt.Sprintf("%s.%s is written without its inferred guard %s (held at %d of %d writes); take the latch or justify with //lint:allow guardinfer",
					k[0], k[1], guard, votes[guard], len(writes))
			} else {
				msg = fmt.Sprintf("%s.%s is written holding only %s, disjoint from its inferred guard %s (held at %d of %d writes); disjoint locksets order nothing — one latch must own the field",
					k[0], k[1], strings.Join(heldSets[i], ", "), guard, votes[guard], len(writes))
			}
			out = append(out, Finding{Pos: a.pos, Msg: msg})
		}
	}
	return out
}
