package lint

import "strings"

// bceGate turns bounds-check elimination — which the single-digit-ns/tuple
// kernels silently depend on — into a compile-time contract: it reads the
// compiler's own BCE debug pass (`-d=ssa/check_bce/debug=1`), parses the
// "Found IsInBounds" / "Found IsSliceInBounds" diagnostics, and fails when
// a residual bounds check sits inside a loop body of an //iawj:hotpath
// function. A per-tuple bounds check is a compare-and-branch on the
// hottest path; worse, its presence usually means the compiler lost track
// of an index invariant, which also blocks downstream optimizations. The
// standard recipes for proving an index (slice-to-length staging, the
// `_ = s[n-1]` hoist, uint comparisons against a constant capacity) are
// documented in LINTING.md.
//
// Scope is the loop bodies of the span, unlike escapegate's whole span:
// only checks positioned inside a for/range body (per-iteration) fail; a
// one-off check in straight-line setup, or the hoisted `_ = s[n-1]` proof
// the recipes put before a loop, is per-call cost and passes.
// Escape hatches are the standard machinery — `//lint:allow bcegate
// <reason>` on or above the line, the path allowlist, or a function-scope
// allow in the hotpath's doc comment for loops whose bounds are genuinely
// data-dependent (chain walks bounded by a per-bucket count the prover
// cannot see).
var bceGate = Rule{
	Name:     "bcegate",
	Doc:      "no residual bounds checks in //iawj:hotpath loops, proven by -d=ssa/check_bce/debug=1",
	Contract: "The compiler's BCE debug pass (-d=ssa/check_bce/debug=1) proves no //iawj:hotpath loop body retains a bounds check. Recipes, in order of preference: slice-to-length staging (blk := xs[lo:lo+n]; hs := heads[:len(blk)]; index both by j := range blk), the `_ = s[n-1]` hoist before the loop, and uint comparison against a constant capacity (if uint32(i) >= cap). Data-dependent bounds the prover cannot see (chain walks bounded by a stored count) take a function-scope //lint:allow bcegate with the invariant written out.",
	Check: func(prog *Program) []Finding {
		return matchBounds(prog.Root, parseBCEOutput(prog.buildDiag()), prog.hotSpans())
	},
}

// parseBCEOutput extracts the check_bce debug lines from the diagnostics
// build's output — file.go:line:col: Found IsInBounds — keeping the kind
// of check as the message.
func parseBCEOutput(out string) []diagLine {
	return diagLines(out, func(msg string) (string, bool) {
		kind, ok := strings.CutPrefix(msg, "Found ")
		return kind, ok && (kind == "IsInBounds" || kind == "IsSliceInBounds")
	})
}

// matchBounds anchors bounds-check diagnostics (paths relative to root) to
// hotpath spans, one finding per check inside a loop body. Checks in the
// straight-line part of a hotpath function are per-run cost and pass, as
// do spans whose doc comment carries a function-scope allow.
func matchBounds(root string, diags []diagLine, spans []hotSpan) []Finding {
	var out []Finding
	for _, d := range diags {
		if s := spanAt(spans, "bcegate", absAgainst(root, d.File), d.Line); s != nil && s.inLoop(d.Line) {
			out = append(out, s.finding(d.Line, d.Col, "%s is //iawj:hotpath but the compiler keeps a bounds check (%s) in a loop; prove the index with the LINTING.md BCE recipes (slice-to-length staging, `_ = s[n-1]` hoist, uint compare) or justify the data-dependent bound with //lint:allow bcegate", s.Name, d.Msg))
		}
	}
	return out
}
