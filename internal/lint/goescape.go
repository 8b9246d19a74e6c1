package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goEscape flags closures handed to goroutine spawn sites that capture
// addressable locals written inside the closure while the spawning
// function keeps touching them — the shared-counter race every eager
// worker loop is one typo away from:
//
//	n := 0
//	go func() { n++ }()
//	n++          // races with the goroutine
//
// Spawn sites are `go func(){...}()` statements, errgroup-style
// `g.Go(func(){...})` calls, and calls to same-module helpers that
// launch a func-typed parameter in a goroutine without joining before
// returning. Helpers that spawn AND join internally — the repo's
// parallel(threads, fn) pattern — execute their argument synchronously
// overall and are not spawn sites.
//
// An access after the spawn is accepted when a join operation (a Wait
// call, a channel receive, or a select) lies between the spawn and the
// access, or when the goroutine's writes and the outer access hold a
// common latch (per the held-lock walk's per-identifier held sets). A
// loop variable that the closure only reads is not reported: go.mod says
// go 1.22, so every iteration has its own variable.
var goEscape = Rule{
	Name:     "goescape",
	Doc:      "no goroutine closure captures a local written on both sides of the spawn without a join or common latch",
	Contract: "A closure handed to a goroutine — a go statement, a g.Go call, or a same-module helper that launches its func argument and returns without joining it — may capture a local of the spawning function. If the closure writes that local, every later use of it in the spawning function races with the goroutine unless something orders the two: a join between the spawn and the use (a Wait call, a channel receive, a select), or one latch held around both the closure's writes and the outer use. Read-only captures are not reported, and neither are helpers that join before returning (parallel(threads, fn)): their argument has finished by the time they return. Pass results over a channel or join first; a race that is ordered by something the rule cannot see takes //lint:allow goescape naming it.",
	Sev:      Error,
	Check:    checkGoEscape,
}

// geSpawn is one spawn site inside a function body.
type geSpawn struct {
	lit *ast.FuncLit
	pos token.Pos // spawn statement position, for messages
	end token.Pos // code after this runs concurrently with the closure
}

// geFunc is one function declaration under analysis.
type geFunc struct {
	lf         *lockFacts
	p          *Package
	fn         *ast.FuncDecl
	spawnedLit map[*ast.FuncLit]bool
	joins      []token.Pos
}

func checkGoEscape(prog *Program) []Finding {
	lf := prog.lockFacts()
	helpers := collectSpawnHelpers(prog)
	var out []Finding
	prog.funcDecls(func(p *Package, imports map[string]string, fn *ast.FuncDecl) {
		g := &geFunc{lf: lf, p: p, fn: fn, spawnedLit: map[*ast.FuncLit]bool{}}
		spawns := g.findSpawns(helpers, imports)
		if len(spawns) == 0 {
			return
		}
		for _, sp := range spawns {
			g.spawnedLit[sp.lit] = true
		}
		// Join operations in the outer body order the spawn against later
		// accesses. Joins inside spawned closures synchronize nothing for the
		// spawner, and a deferred Wait runs after every body access.
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if g.spawnedLit[n] {
					return false
				}
			case *ast.DeferStmt:
				return false
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
					g.joins = append(g.joins, n.Pos())
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					g.joins = append(g.joins, n.Pos())
				}
			case *ast.SelectStmt:
				g.joins = append(g.joins, n.Pos())
			}
			return true
		})
		for _, sp := range spawns {
			out = append(out, g.checkSpawn(sp)...)
		}
	})
	return out
}

// collectSpawnHelpers finds same-module functions that launch a
// func-typed parameter in a goroutine and return without joining it —
// callers of such helpers are spawn sites for their closure arguments.
func collectSpawnHelpers(prog *Program) map[funcID]bool {
	out := map[funcID]bool{}
	prog.funcDecls(func(p *Package, _ map[string]string, fn *ast.FuncDecl) {
		params := map[types.Object]bool{}
		for _, fld := range fn.Type.Params.List {
			if _, isFunc := fld.Type.(*ast.FuncType); !isFunc {
				continue
			}
			for _, name := range fld.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
		if len(params) == 0 {
			return
		}
		lastSpawn := token.NoPos
		joined := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				uses := false
				ast.Inspect(n, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && params[objOf(p, id)] {
						uses = true
					}
					return true
				})
				if uses && n.Pos() > lastSpawn {
					lastSpawn = n.Pos()
					joined = false
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" &&
					lastSpawn != token.NoPos && n.Pos() > lastSpawn {
					joined = true
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && lastSpawn != token.NoPos && n.Pos() > lastSpawn {
					joined = true
				}
			}
			return true
		})
		if lastSpawn != token.NoPos && !joined {
			out[declID(p, fn)] = true
		}
	})
	return out
}

// findSpawns collects the function's spawn sites.
func (g *geFunc) findSpawns(helpers map[funcID]bool, imports map[string]string) []geSpawn {
	var spawns []geSpawn
	ast.Inspect(g.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				spawns = append(spawns, geSpawn{lit: lit, pos: n.Pos(), end: n.End()})
			}
		case *ast.CallExpr:
			spawning := false
			callees := g.lf.resolve(g.p, imports, n)
			for _, c := range callees {
				if helpers[c] {
					spawning = true
				}
			}
			if !spawning && len(callees) == 0 {
				// Unresolvable .Go receiver: assume errgroup semantics
				// (spawns now, joins at a later .Wait()).
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Go" {
					spawning = true
				}
			}
			if spawning {
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						spawns = append(spawns, geSpawn{lit: lit, pos: n.Pos(), end: n.End()})
					}
				}
			}
		}
		return true
	})
	return spawns
}

// checkSpawn reports the races of one spawn site.
func (g *geFunc) checkSpawn(sp geSpawn) []Finding {
	// Captured objects: locals of fn (params included) used inside the
	// closure but declared outside it, with the closure's writes to each.
	writes := map[types.Object][]*ast.Ident{}
	var order []types.Object
	ast.Inspect(sp.lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := g.p.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := obj.Pos()
		if pos < g.fn.Pos() || pos > g.fn.End() {
			return true // package-level or foreign
		}
		if pos >= sp.lit.Pos() && pos <= sp.lit.End() {
			return true // the closure's own params/locals
		}
		if _, seen := writes[obj]; !seen {
			writes[obj] = nil
			order = append(order, obj)
		}
		return true
	})
	ast.Inspect(sp.lit.Body, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			targets = n.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		default:
			return true
		}
		for _, t := range targets {
			if root := rootIdent(t); root != nil {
				if obj := g.p.Info.Uses[root]; obj != nil {
					if _, captured := writes[obj]; captured {
						writes[obj] = append(writes[obj], root)
					}
				}
			}
		}
		return true
	})

	var out []Finding
	for _, obj := range order {
		if len(writes[obj]) == 0 {
			continue // read-only capture: the closure cannot corrupt it
		}
		if racy := g.findRacyAccess(sp, obj, writes[obj]); racy != nil {
			out = append(out, g.p.finding(racy.Pos(), "%s is written by the goroutine closure spawned at line %d and accessed here with no join (Wait/receive/select) or common latch between; the access races with the goroutine — join first, guard both sides, or pass results over a channel (//lint:allow goescape to justify)",
				obj.Name(), g.p.Fset.Position(sp.pos).Line))
		}
	}
	return out
}

// findRacyAccess returns the first outer-body use of obj after the spawn
// that no join and no common latch orders against the closure's writes.
func (g *geFunc) findRacyAccess(sp geSpawn, obj types.Object, innerWrites []*ast.Ident) *ast.Ident {
	var racy *ast.Ident
	ast.Inspect(g.fn.Body, func(n ast.Node) bool {
		if racy != nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && g.spawnedLit[lit] {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || g.p.Info.Uses[id] != obj {
			return true
		}
		if id.Pos() <= sp.end {
			return true
		}
		for _, j := range g.joins {
			if sp.end < j && j <= id.Pos() {
				return true // a join orders spawn -> access
			}
		}
		if outerHeld := g.lf.identHeld[id]; len(outerHeld) > 0 {
			ordered := true
			for _, w := range innerWrites {
				if !intersectsStr(g.lf.identHeld[w], outerHeld) {
					ordered = false
					break
				}
			}
			if ordered {
				return true // a common latch orders every write pair
			}
		}
		racy = id
		return false
	})
	return racy
}
