package lint

import "go/token"

// lockDiscipline flags a latching bug that -race cannot reliably surface:
// a Lock()/RLock() whose matching unlock is neither deferred nor present
// at all, or with a return statement between the lock and the first
// matching unlock (a leak on that path).
//
// The matching is per innermost function body, over the lock events the
// held-lock walk records for it (lockwalk.go), and textual on the receiver
// expression, which is exactly right for the repo's style (named mutex
// fields, no lock aliasing). Sync primitives copied by value are `go
// vet`'s copylocks check, stage 2 of `make check`.
var lockDiscipline = Rule{
	Name:     "lockdiscipline",
	Doc:      "unlocks must be deferred or on every return path",
	Contract: "Every mutex acquire must have a statically-paired release on all paths: defer immediately after Lock, or an unlock on every return. A leaked lock in a partition worker deadlocks the barrier, which presents as a hang, not a failure.",
	Sev:      Error,
	Check:    checkLockDiscipline,
}

// lockPairs maps each acquire method to its release.
var lockPairs = map[string]string{
	"Lock":  "Unlock",
	"RLock": "RUnlock",
}

func checkLockDiscipline(prog *Program) []Finding {
	lf := prog.lockFacts()
	var out []Finding
	for _, id := range lf.order {
		s := lf.funcs[id]
		for _, body := range s.bodies {
			for _, lk := range body.locks {
				release := lockPairs[lk.method]
				first := token.NoPos
				deferred := false
				for _, ul := range body.unlocks {
					if ul.recv != lk.recv || ul.method != release {
						continue
					}
					if ul.deferred {
						deferred = true
						break
					}
					if ul.pos > lk.pos && (first == token.NoPos || ul.pos < first) {
						first = ul.pos
					}
				}
				switch {
				case deferred:
				case first == token.NoPos:
					out = append(out, s.pkg.finding(lk.pos, "%s.%s has no matching %s in this function", lk.recv, lk.method, release))
				default:
					for _, ret := range body.returns {
						if ret > lk.pos && ret < first {
							out = append(out, s.pkg.finding(lk.pos, "return between %s.%s and its %s leaks the lock; defer the unlock", lk.recv, lk.method, release))
							break
						}
					}
				}
			}
		}
	}
	return out
}
