package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// hotPathAlloc flags heap-allocating constructs inside functions annotated
// `//iawj:hotpath` — the probe/build inner loops of the join kernels,
// where a per-tuple allocation turns a memory-bound kernel into a
// GC-bound one and skews every Figure the harness reproduces.
//
// Flagged constructs:
//
//   - append whose target is not declared inside the annotated function
//     (growing a captured or package-level slice from the inner loop);
//   - fmt.Sprintf / Sprint / Sprintln / Errorf (formatting allocates);
//   - map creation (make(map...) or a map composite literal);
//   - a func literal constructed inside a loop (a per-iteration closure —
//     the per-match emit closures the batched kernel APIs exist to
//     eliminate; hoist the closure before the loop or use
//     InsertBatch/ProbeRuns);
//   - make of a slice inside a loop (per-iteration scratch; allocate the
//     scratch once before the loop or take it from the window pool);
//   - non-constant string concatenation inside a loop (+ or += on
//     strings builds a fresh backing array per iteration);
//   - an argument implicitly converted to an interface parameter inside a
//     loop (boxing a concrete value allocates; only calls whose callee
//     signature resolves locally are checked);
//   - a call through a function value inside a loop (a parameter, local,
//     captured variable, or struct field of function type). An indirect
//     call per tuple defeats inlining and costs more than the work it
//     wraps in a memory-bound kernel — measured on the fused build
//     scatter (since retired), where a per-tuple non-inlined insert
//     erased the whole fusion win. Direct calls to named functions and methods are fine
//     (the inliner sees through them); deliberate per-probe callbacks —
//     the scalar emit reference paths — carry //lint:allow with a reason.
//
// Appends to locally declared buffers are the kernels' bread and butter
// and are not flagged, nor are closures and slice makes that run once,
// outside any loop. The slice check is syntactic: make of a named slice
// type spelled through a selector (e.g. make(pkg.Alias, n)) is not
// recognized.
var hotPathAlloc = Rule{
	Name:     "hotpathalloc",
	Doc:      "no captured-slice append, fmt.Sprintf, map creation, per-loop closure/scratch/string/interface-boxing allocation, or per-loop function-value calls in //iawj:hotpath functions",
	Contract: "//iawj:hotpath bodies must not allocate per iteration: no captured-slice append, fmt.Sprintf, map literals, closure creation, string conversion, or interface boxing inside loops. The kernels' ns/tuple figures assume zero GC pressure; take scratch from the pool.",
	Check:    perPackage(checkHotPathAlloc),
}

// hotPathMarker is the annotation that opts a function into this rule and
// the escape and bounds-check gates.
const hotPathMarker = "//iawj:hotpath"

// fmtAllocFuncs are the fmt formatters that always allocate their result.
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

func checkHotPathAlloc(p *Package) []Finding {
	var out []Finding
	p.hotFuncs(func(imports map[string]string, fn *ast.FuncDecl) {
		out = append(out, checkHotFunc(p, fn, imports)...)
	})
	return out
}

// hotFuncs visits the package's //iawj:hotpath function declarations with
// the import map of the file declaring each.
func (p *Package) hotFuncs(visit func(imports map[string]string, fn *ast.FuncDecl)) {
	for _, f := range p.Files {
		imports := importNames(f)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && isHotPath(fn) {
				visit(imports, fn)
			}
		}
	}
}

// isHotPath reports whether the declaration carries the hotpath marker in
// its doc comment.
func isHotPath(fn *ast.FuncDecl) bool {
	return hasMarker(fn, hotPathMarker)
}

// checkHotFunc scans one annotated function, including its nested
// closures, which execute on the same hot path.
func checkHotFunc(p *Package, fn *ast.FuncDecl, imports map[string]string) []Finding {
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
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := pkgCall(n, imports, "fmt"); ok && fmtAllocFuncs[name] {
				flag(n.Pos(), fmt.Sprintf("fmt.%s allocates in a //iawj:hotpath function", name))
				return true
			}
			if inLoop(n.Pos()) {
				for _, pos := range boxedArgs(p, n) {
					flag(pos, "implicit interface conversion inside a loop in a //iawj:hotpath function; boxing the argument allocates, pass a concrete type or hoist the call")
				}
				if pos, ok := indirectCallee(p, n); ok {
					flag(pos, "call through a function value inside a loop in a //iawj:hotpath function; a per-tuple indirect call defeats inlining — inline the loop body or use the batched kernel APIs")
				}
			}
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				switch fun.Name {
				case "append":
					if len(n.Args) > 0 && capturedTarget(p, fn, n.Args[0]) {
						flag(n.Pos(), "append grows a captured slice in a //iawj:hotpath function; use a local buffer")
					}
				case "make":
					if len(n.Args) > 0 {
						if _, isMap := n.Args[0].(*ast.MapType); isMap {
							flag(n.Pos(), "map creation in a //iawj:hotpath function")
						} else if arr, isSlice := n.Args[0].(*ast.ArrayType); isSlice && arr.Len == nil && inLoop(n.Pos()) {
							flag(n.Pos(), "slice make inside a loop in a //iawj:hotpath function; hoist the scratch or use the window pool")
						}
					}
				}
			}
		case *ast.FuncLit:
			if inLoop(n.Pos()) {
				flag(n.Pos(), "closure constructed inside a loop in a //iawj:hotpath function; hoist it or use the batched kernel APIs")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && inLoop(n.Pos()) && isStringExpr(p, n) && !isConstExpr(p, n) {
				flag(n.Pos(), "string concatenation inside a loop in a //iawj:hotpath function; each iteration copies a fresh backing array")
				return false // the operands of a nested a+b+c are the same concatenation
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && inLoop(n.Pos()) && len(n.Lhs) == 1 && isStringExpr(p, n.Lhs[0]) {
				flag(n.Pos(), "string concatenation inside a loop in a //iawj:hotpath function; each iteration copies a fresh backing array")
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
// constant concatenation is materialized at compile time, not per
// iteration).
func isConstExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// boxedArgs returns the positions of call arguments that a locally
// resolvable callee signature implicitly converts to an interface type —
// each such call boxes the concrete value on the heap. Calls into stub
// imports have invalid signatures and are skipped (conservative under
// partial type information); nil and already-interface arguments do not
// box.
func boxedArgs(p *Package, call *ast.CallExpr) []token.Pos {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := p.Info.Uses[id]
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return nil
	}
	// Ellipsis calls (f(xs...)) pass the slice through without boxing.
	if call.Ellipsis.IsValid() {
		return nil
	}
	var out []token.Pos
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			s, ok := sig.Params().At(np - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = s.Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		tv, ok := p.Info.Types[arg]
		if !ok || tv.Type == nil || tv.IsNil() {
			continue
		}
		if b, isBasic := tv.Type.Underlying().(*types.Basic); isBasic && (b.Kind() == types.Invalid || b.Info()&types.IsUntyped != 0) {
			continue
		}
		if types.IsInterface(tv.Type) {
			continue
		}
		out = append(out, arg.Pos())
	}
	return out
}

// indirectCallee reports whether the call goes through a function value —
// an identifier bound to a *types.Var (parameter, local, captured
// variable) or a struct field, of function type — rather than a directly
// named function, method, builtin, or type conversion. Unresolvable
// callees are not flagged (conservative under partial type information).
// An immediately invoked func literal is handled by the closure check.
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
	obj := objOf(p, id)
	if obj == nil {
		return false
	}
	return obj.Pos() < fn.Pos() || obj.Pos() > fn.End()
}
