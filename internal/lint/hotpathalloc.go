package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotPathAlloc flags, inside functions annotated `//iawj:hotpath`, the
// per-tuple costs escape analysis cannot see — the probe/build inner
// loops of the join kernels, where a per-tuple allocation turns a
// memory-bound kernel into a GC-bound one and skews every Figure the
// harness reproduces. What escapes to the heap (closures, non-constant
// slice makes, boxing, fmt's arguments, new) is escapegate's: the compiler
// reports exactly the ones that allocate. This rule keeps the four the
// compiler does not report:
//
//   - append whose target is not declared inside the annotated function
//     (growing a captured or package-level slice reallocates its backing
//     array; the slice itself never "escapes");
//   - map creation (make(map...) or a map composite literal; a map sized
//     at run time allocates its buckets even when it does not escape);
//   - non-constant string concatenation (+ or += on strings builds a
//     fresh backing array once the result outgrows the stack buffer);
//   - a call through a function value inside a loop (a parameter, local,
//     captured variable, or struct field of function type). It allocates
//     nothing, but an indirect call per tuple defeats inlining and costs
//     more than the work it wraps in a memory-bound kernel. Direct calls
//     to named functions and methods are fine (the inliner sees through
//     them).
//
// Appends to locally declared buffers are the kernels' bread and butter
// and are not flagged, nor are indirect calls that run once, outside any
// loop.
var hotPathAlloc = Rule{
	Name:     "hotpathalloc",
	Doc:      "what escape analysis cannot see in //iawj:hotpath functions: captured-slice append, map creation, string concatenation, per-loop function-value calls",
	Contract: "//iawj:hotpath bodies must not allocate in ways escape analysis cannot see: no append to a captured or package-level slice, no map creation, no non-constant string concatenation, and no call through a function value inside a loop (a per-tuple indirect call defeats inlining). What escapes to the heap is escapegate's, from the compiler's own verdict. The kernels' ns/tuple figures assume zero GC pressure; take scratch from the pool.",
	Check: func(prog *Program) []Finding {
		var out []Finding
		prog.funcDecls(func(p *Package, fn *ast.FuncDecl) {
			if isHotPath(fn) {
				out = append(out, checkHotFunc(p, fn)...)
			}
		})
		return out
	},
}

// hotPathMarker is the annotation that opts a function into this rule and
// the escape and bounds-check gates.
const hotPathMarker = "//iawj:hotpath"

// isHotPath reports whether the declaration carries the hotpath marker in
// its doc comment.
func isHotPath(fn *ast.FuncDecl) bool {
	return hasMarker(fn, hotPathMarker)
}

// checkHotFunc scans one annotated function, including its nested
// closures, which execute on the same hot path.
func checkHotFunc(p *Package, fn *ast.FuncDecl) []Finding {
	var out []Finding
	flag := func(pos token.Pos, msg string) {
		out = append(out, Finding{Pos: p.Fset.Position(pos), Msg: msg})
	}
	loops := loopBodies(fn.Body)
	inLoop := func(pos token.Pos) bool {
		for _, body := range loops {
			if pos >= body.Pos() && pos < body.End() {
				return true
			}
		}
		return false
	}
	const concat = "string concatenation in a //iawj:hotpath function; each call copies a fresh backing array"
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if pos, ok := indirectCallee(p, n); ok && inLoop(n.Pos()) {
				flag(pos, "call through a function value inside a loop in a //iawj:hotpath function; a per-tuple indirect call defeats inlining — inline the loop body or use the batched kernel APIs")
			}
			if fun, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 0 {
				switch fun.Name {
				case "append":
					if capturedTarget(p, fn, n.Args[0]) {
						flag(n.Pos(), "append grows a captured slice in a //iawj:hotpath function; use a local buffer")
					}
				case "make":
					if _, isMap := n.Args[0].(*ast.MapType); isMap {
						flag(n.Pos(), "map creation in a //iawj:hotpath function")
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(p, n) && !isConstExpr(p, n) {
				flag(n.Pos(), concat)
				return false // the operands of a nested a+b+c are the same concatenation
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(p, n.Lhs[0]) {
				flag(n.Pos(), concat)
			}
		case *ast.CompositeLit:
			if _, isMap := n.Type.(*ast.MapType); isMap {
				flag(n.Pos(), "map literal in a //iawj:hotpath function")
			}
		}
		return true
	})
	return out
}

// loopBodies collects the body of every for/range statement under root,
// including those inside nested closures — the whole annotated function is
// the hot path, and a worker FuncLit's probe loop is still the hot loop.
func loopBodies(root ast.Node) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(root, func(n ast.Node) bool {
		switch l := n.(type) {
		case *ast.ForStmt:
			bodies = append(bodies, l.Body)
		case *ast.RangeStmt:
			bodies = append(bodies, l.Body)
		}
		return true
	})
	return bodies
}

// isStringExpr reports whether the expression's resolved static type has
// underlying type string. Unresolved types (cross-package under the stub
// importer) report false — conservative.
func isStringExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether the expression folds to a constant (a
// constant concatenation is materialized at compile time, not per call).
func isConstExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// indirectCallee reports whether the call goes through a function value —
// an identifier bound to a *types.Var (parameter, local, captured
// variable) or a struct field, of function type — rather than a directly
// named function, method, builtin, or type conversion. Unresolvable
// callees are not flagged (conservative under partial type information).
func indirectCallee(p *Package, call *ast.CallExpr) (token.Pos, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := p.Info.Uses[fun].(*types.Var); ok {
			if _, isFunc := obj.Type().Underlying().(*types.Signature); isFunc {
				return fun.Pos(), true
			}
		}
	case *ast.SelectorExpr:
		// A field of function type (sel.Kind FieldVal). Method values and
		// method expressions resolve to *types.Func and stay unflagged.
		if sel, ok := p.Info.Selections[fun]; ok && sel.Kind() == types.FieldVal {
			if _, isFunc := sel.Type().Underlying().(*types.Signature); isFunc {
				return fun.Sel.Pos(), true
			}
		}
		// A package-level function variable spelled pkg.Hook.
		if obj, ok := p.Info.Uses[fun.Sel].(*types.Var); ok {
			if _, isFunc := obj.Type().Underlying().(*types.Signature); isFunc {
				return fun.Sel.Pos(), true
			}
		}
	}
	return 0, false
}

// capturedTarget reports whether the append target's root identifier is
// declared outside the annotated function — a captured variable or a
// package-level slice. Unresolvable identifiers are not flagged
// (conservative under partial type information).
func capturedTarget(p *Package, fn *ast.FuncDecl, target ast.Expr) bool {
	id := rootIdent(target)
	if id == nil {
		return false
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		return false
	}
	return obj.Pos() < fn.Pos() || obj.Pos() > fn.End()
}
