package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// lockOrder is the whole-program deadlock rule. From the held-lock walk's
// per-function summaries and callgraph (lockwalk.go) it reports:
//
//   - lock-order cycles: lock A is (possibly transitively) acquired while
//     B is held on one path and B while A is held on another — the classic
//     ABBA deadlock -race only catches when the interleaving happens to
//     occur;
//   - recursive acquisition: a call chain re-acquires a lock the caller
//     already holds (Go mutexes are not reentrant);
//   - locks held across blocking operations: channel send/receive, select
//     without default, Wait calls, time.Sleep, and clock-gating busy-wait
//     loops (for-loops conditioned on clock Avail/NowMs). A latch held
//     across a blocking point stalls every worker contending for it, and
//     deadlocks outright when the unblocking party needs the latch.
//
// Lock identity is per type, not per instance, so the rule intentionally
// does not flag two different instances of the same type locked in
// sequence by distinct syntactic receivers (lock-coupling patterns); a
// direct re-lock of the identical expression is flagged.
var lockOrder = Rule{
	Name:     "lockorder",
	Doc:      "no lock-order cycles, recursive acquisition, or locks held across blocking ops (interprocedural)",
	Contract: "Every pair of locks is acquired in one order program-wide: if any path takes B while holding A — directly or through a call chain — no path may take A while holding B, because two goroutines on those paths deadlock as soon as they interleave, which the race detector only sees on the run where it happens. The same held sets give two more reports: a call chain that re-acquires a lock its caller already holds (Go mutexes are not reentrant: self-deadlock), and a lock held across a blocking operation — channel send or receive, select without default, a Wait call, time.Sleep, a busy-wait on the simulated clock — which stalls every contender for as long as the operation blocks and deadlocks if the party that would unblock it needs the lock. Locks are identified per owning type and field, not per instance, so lock coupling over two instances of one type is not reported.",
	Sev:      Error,
	Check:    checkLockOrder,
}

// lockEdge is one observed acquisition order: to was acquired while from
// was held.
type lockEdge struct {
	from, to string
	pos      token.Position
}

func checkLockOrder(prog *Program) []Finding {
	lf := prog.lockFacts()
	var findings []Finding
	var edges []lockEdge
	for _, id := range lf.order {
		s := lf.funcs[id]
		for _, a := range s.acquires {
			for _, h := range a.held {
				switch {
				case h.key != a.key:
					edges = append(edges, lockEdge{h.key, a.key, s.pkg.Fset.Position(a.pos)})
				case h.expr == a.expr:
					findings = append(findings, s.pkg.finding(a.pos, "%s acquired again while already held; Go mutexes are not reentrant (self-deadlock)", a.key))
				}
				// Same type-key, different instance: lock coupling, not
				// modeled (see the rule's doc).
			}
		}
		for _, b := range s.blockOps {
			findings = append(findings, s.pkg.finding(b.pos, "%s held across %s; unlock first or restructure (blocks every contender, deadlocks if the unblocking party needs the lock)", strings.Join(b.held, ", "), b.desc))
		}
		// Interprocedural: calls made with locks held.
		for _, c := range s.calls {
			if len(c.held) == 0 {
				continue
			}
			for _, callee := range c.callees {
				acquires, blocks := lf.reach(callee)
				if blocks {
					findings = append(findings, s.pkg.finding(c.pos, "%s held across call to %s, which may block; unlock first or restructure", strings.Join(c.held, ", "), callee))
				}
				for _, acq := range acquires {
					for _, h := range c.held {
						if h == acq {
							findings = append(findings, s.pkg.finding(c.pos, "call to %s re-acquires %s already held here; Go mutexes are not reentrant (self-deadlock)", callee, h))
							continue
						}
						edges = append(edges, lockEdge{h, acq, s.pkg.Fset.Position(c.pos)})
					}
				}
			}
		}
	}
	return append(findings, lockCycles(edges)...)
}

// cycles finds strongly connected components in the acquisition-order
// graph and reports one finding per cycle, anchored at the lexically first
// participating edge.
func lockCycles(edges []lockEdge) []Finding {
	adj := map[string]map[string]lockEdge{}
	var nodes []string
	addNode := func(n string) {
		if _, ok := adj[n]; !ok {
			adj[n] = map[string]lockEdge{}
			nodes = append(nodes, n)
		}
	}
	for _, e := range edges {
		addNode(e.from)
		addNode(e.to)
		if _, ok := adj[e.from][e.to]; !ok {
			adj[e.from][e.to] = e
		}
	}
	sort.Strings(nodes)

	// Tarjan's SCC, iterative over sorted nodes for determinism.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		var succs []string
		for w := range adj[v] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	var findings []Finding
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue // an edge never joins a lock to itself: no self loops
		}
		sort.Strings(scc)
		in := map[string]bool{}
		for _, n := range scc {
			in[n] = true
		}
		// Reconstruct one representative cycle path from the smallest
		// node, and find the lexically first edge inside the SCC as the
		// report anchor.
		path := []string{scc[0]}
		cur := scc[0]
		for {
			var succs []string
			for w := range adj[cur] {
				if in[w] {
					succs = append(succs, w)
				}
			}
			sort.Strings(succs)
			cur = succs[0]
			path = append(path, cur)
			if cur == scc[0] {
				break
			}
		}
		var anchor *lockEdge
		for _, from := range scc {
			for to, e := range adj[from] {
				if in[to] && (anchor == nil || comparePos(e.pos, anchor.pos) < 0) {
					anchor = &e
				}
			}
		}
		findings = append(findings, Finding{
			Pos: anchor.pos,
			Msg: fmt.Sprintf("lock-order cycle: %s; this edge acquires %s while %s is held, another path acquires them in reverse order (ABBA deadlock)",
				strings.Join(path, " -> "), anchor.to, anchor.from),
		})
	}
	return findings
}
