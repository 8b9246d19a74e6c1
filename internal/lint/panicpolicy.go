package lint

import (
	"go/ast"
	"strings"
)

// panicPolicy flags bare panic calls in internal/* library code. The join
// kernels run inside long-lived worker goroutines; a panic there tears
// down the whole benchmark process instead of failing one run, so library
// code must return errors. Invariant helpers — functions whose name starts
// with "must"/"Must" or contains "assert"/"invariant" — are the sanctioned
// home for panics on impossible states.
var panicPolicy = Rule{
	Name:     "panicpolicy",
	Doc:      "no bare panic in internal/* outside invariant helpers (must*/assert*/invariant*)",
	Contract: "Kernels and workers never panic on data; panics are reserved for programmer errors caught at construction time. A panic in a worker tears down the process mid-measurement and poisons the ledger.",
	Sev:      Warn,
	Check:    perPackage(checkPanicPolicy),
}

func checkPanicPolicy(p *Package) []Finding {
	if p.Rel != "internal" && !strings.HasPrefix(p.Rel, "internal/") {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || isInvariantHelper(fn.Name.Name) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					out = append(out, p.finding(call.Pos(), "bare panic in internal library code; return an error or move into a must*/assert* invariant helper"))
				}
				return true
			})
		}
	}
	return out
}

// isInvariantHelper reports whether a function name marks a sanctioned
// panic site.
func isInvariantHelper(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "must") ||
		strings.Contains(lower, "assert") ||
		strings.Contains(lower, "invariant")
}
