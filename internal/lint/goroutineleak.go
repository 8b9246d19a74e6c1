package lint

import (
	"go/ast"
	"go/token"
)

// goroutineLeak flags a `go` statement whose enclosing function shows no
// visible join: no .Wait() call (sync.WaitGroup or errgroup style), no
// channel receive, and no select statement. A worker launched without a
// join outlives the measurement it contributes to — matches land after the
// metrics snapshot, which is exactly the nondeterminism the experiment
// harness must exclude.
//
// The join may be anywhere in the enclosing body (including helper
// closures that are invoked inline), but the launched goroutine's own body
// does not count: a receive inside the leaked goroutine does not join it.
var goroutineLeak = Rule{
	Name:     "goroutineleak",
	Doc:      "go statements need a visible join (.Wait(), channel receive, or select) in the enclosing function",
	Contract: "Every `go` statement needs a join the reader can see in the function that launches it: a .Wait() call (sync.WaitGroup or errgroup style), a channel receive, or a select — anywhere in that function's body except inside the launched closure itself, where a receive joins nothing. A worker nobody waits for outlives the run it belongs to, so its matches land after the metrics snapshot and its CPU is billed to the next window. A goroutine that is joined elsewhere by design (a sampler stopped through its done channel, a server that lives as long as the process) carries //lint:allow goroutineleak naming where it ends.",
	Sev:      Error,
	Check:    perPackage(checkGoroutineLeak),
}

func checkGoroutineLeak(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		forEachFuncBody(f, func(body *ast.BlockStmt) {
			var gos []*ast.GoStmt
			walkShallow(body, func(n ast.Node) {
				if g, ok := n.(*ast.GoStmt); ok {
					gos = append(gos, g)
				}
			})
			if len(gos) == 0 || hasJoin(body, gos) {
				return
			}
			for _, g := range gos {
				out = append(out, p.finding(g.Pos(), "goroutine launched without a visible join (.Wait(), channel receive, or select) in the enclosing function"))
			}
		})
	}
	return out
}

// hasJoin reports whether body contains a join construct outside the
// launched goroutines' own function literals.
func hasJoin(body *ast.BlockStmt, gos []*ast.GoStmt) bool {
	launched := map[ast.Node]bool{}
	for _, g := range gos {
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
			launched[lit] = true
		}
	}
	join := false
	ast.Inspect(body, func(n ast.Node) bool {
		if join || launched[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				join = true
			}
		case *ast.SelectStmt:
			join = true
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				join = true
			}
		}
		return !join
	})
	return join
}

// forEachFuncBody visits the body of every function declaration and
// function literal in the file.
func forEachFuncBody(f *ast.File, visit func(body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n.Body)
			}
		case *ast.FuncLit:
			visit(n.Body)
		}
		return true
	})
}

// walkShallow walks the statements of one function body without
// descending into nested function literals, which own their statements.
func walkShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
