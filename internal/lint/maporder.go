package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mapOrder is the map-iteration-order determinism rule: a whole-program,
// flow-sensitive dataflow pass that taints values whose ORDER derives from
// ranging over a Go map (iteration order is randomized per run) and flags
// when that order reaches an emission surface without passing through a
// sort barrier. The conformance oracle and the upcoming distributed
// digest-merge depend on byte-stable output; one unsorted `range m`
// feeding a journal writer or a report table silently breaks replay
// diffing, golden files, and cross-shard comparison — on some runs.
//
// Taint sources:
//   - the body of `for k, v := range m` where m is map-typed (emissions
//     and slice fills inside the body happen in map order);
//   - iterators over maps: maps.Keys/Values/All, and slices.Collect of
//     one of those;
//   - ranging over an already-tainted slice (the order propagates);
//   - calls to program-local functions whose returned slice is tainted
//     (interprocedural summaries, computed to a fixpoint).
//
// Emission sinks:
//   - fmt output (any fmt.* call);
//   - stream/journal writes: method calls named Write* or Encode;
//   - digest updates: Add/Update/Merge/Observe/Mix on a receiver whose
//     type name contains Digest or Fingerprint (best-effort typing; a
//     commutative digest that is order-independent by construction is a
//     sanctioned violation — justify with //lint:allow maporder);
//   - returning a tainted slice from an exported function (the caller
//     cannot know the order is unstable).
//
// Barriers (clear taint, flow-sensitively — a sort AFTER the sink does
// not retroactively fix the emission):
//   - sort.Sort/Stable/Slice/SliceStable/Strings/Ints/Float64s on the
//     value;
//   - slices.Sort*/Sorted* (a Sorted* call result is born clean);
//   - any program-local call whose name contains "sort" (SortFindings,
//     sortedKeys, ...) — the repo convention is that such helpers
//     establish the one deterministic order;
//   - reassignment from an untainted value.
var mapOrder = Rule{
	Name:     "maporder",
	Doc:      "map-iteration order must not reach journals, digests, fmt output, or exported returns without a sort barrier",
	Contract: "Go randomizes map iteration order per run. Any value whose ORDER derives from ranging over a map (keys collected in the range body, appends inside it, maps.Keys iterators) must pass a sort barrier (sort.*, slices.Sort*, or a local *sort* helper) before reaching an emission sink: fmt output, Write*/Encode stream methods, digest updates, or a slice returned from an exported function. Order-independent sinks (a commutative digest) are sanctioned violations — justify with //lint:allow maporder and say WHY order cannot matter.",
	Sev:      Error,
	Check:    checkMapOrder,
}

// moSummaries records, per package-level function (key "rel:Name"),
// whether it can return a map-ordered slice.
type moSummaries map[string]bool

// checkMapOrder is a summary fixpoint over every package-level function,
// then one reporting pass.
func checkMapOrder(prog *Program) []Finding {
	sums := moSummaries{}
	for round := 0; round < 4; round++ {
		changed := false
		prog.funcDecls(func(p *Package, imports map[string]string, fn *ast.FuncDecl) {
			a := newMoWalker(p, prog, imports, sums, nil)
			a.walkBody(fn)
			if k := moFuncKey(p, fn); k != "" && a.returnTainted && !sums[k] {
				sums[k] = true
				changed = true
			}
		})
		if !changed {
			break
		}
	}
	var out []Finding
	prog.funcDecls(func(p *Package, imports map[string]string, fn *ast.FuncDecl) {
		a := newMoWalker(p, prog, imports, sums, &out)
		a.exported = fn.Name.IsExported()
		a.walkBody(fn)
	})
	return out
}

// moFuncKey keys package-level functions for the summary table; methods
// return "" (call sites are not resolved for them).
func moFuncKey(p *Package, fn *ast.FuncDecl) string {
	if fn.Recv != nil {
		return ""
	}
	return p.Rel + ":" + fn.Name.Name
}

// moWalker is the per-function flow-sensitive state.
type moWalker struct {
	p       *Package
	prog    *Program
	imports map[string]string
	sums    moSummaries
	// tainted maps a variable (or struct field) object to the position of
	// the map range that ordered it.
	tainted map[types.Object]token.Pos
	// out collects findings; nil during summary rounds.
	out           *[]Finding
	exported      bool
	returnTainted bool
}

func newMoWalker(p *Package, prog *Program, imports map[string]string, sums moSummaries, out *[]Finding) *moWalker {
	return &moWalker{
		p:       p,
		prog:    prog,
		imports: imports,
		sums:    sums,
		tainted: map[types.Object]token.Pos{},
		out:     out,
	}
}

func (a *moWalker) walkBody(fn *ast.FuncDecl) {
	for _, s := range fn.Body.List {
		a.stmt(s, token.NoPos)
	}
}

// report emits a finding unless running a summary round.
func (a *moWalker) report(pos token.Pos, msg string) {
	if a.out != nil {
		*a.out = append(*a.out, Finding{Pos: a.p.Fset.Position(pos), Msg: msg})
	}
}

// obj resolves an identifier to its object, definition or use.
func (a *moWalker) obj(id *ast.Ident) types.Object { return objOf(a.p, id) }

// baseObj resolves the storage object behind an assignable expression:
// the identifier, or the field object of a selector (coarse: one taint
// bit per field, program-wide).
func (a *moWalker) baseObj(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return a.obj(e)
	case *ast.ParenExpr:
		return a.baseObj(e.X)
	case *ast.SelectorExpr:
		if sel := a.p.Info.Selections[e]; sel != nil {
			return sel.Obj()
		}
		return a.obj(e.Sel)
	case *ast.IndexExpr:
		return a.baseObj(e.X)
	case *ast.SliceExpr:
		return a.baseObj(e.X)
	}
	return nil
}

// exprTainted reports whether evaluating e yields a map-ordered value,
// and the origin position of the taint.
func (a *moWalker) exprTainted(e ast.Expr) (token.Pos, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if o := a.obj(e); o != nil {
			if pos, ok := a.tainted[o]; ok {
				return pos, true
			}
		}
	case *ast.ParenExpr:
		return a.exprTainted(e.X)
	case *ast.SliceExpr:
		return a.exprTainted(e.X)
	case *ast.SelectorExpr:
		if o := a.baseObj(e); o != nil {
			if pos, ok := a.tainted[o]; ok {
				return pos, true
			}
		}
	case *ast.CallExpr:
		return a.callTainted(e)
	}
	return token.NoPos, false
}

// callTainted reports whether a call's result carries map order: a map
// iterator (maps.Keys/Values/All), slices.Collect of one, or a
// program-local function summarized as returning map order.
func (a *moWalker) callTainted(call *ast.CallExpr) (token.Pos, bool) {
	if name, ok := pkgCall(call, a.imports, "maps"); ok {
		if name == "Keys" || name == "Values" || name == "All" {
			return call.Pos(), true
		}
	}
	if name, ok := pkgCall(call, a.imports, "slices"); ok {
		if name == "Collect" && len(call.Args) == 1 {
			return a.exprTainted(call.Args[0])
		}
		return token.NoPos, false // slices.Sorted* and friends are born clean
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if o := a.obj(fun); o != nil {
			if _, isFunc := o.(*types.Func); isFunc && a.sums[a.p.Rel+":"+fun.Name] {
				return call.Pos(), true
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if path, isPkg := a.imports[id.Name]; isPkg {
				if dep := a.prog.byImportPath(path); dep != nil && a.sums[dep.Rel+":"+fun.Sel.Name] {
					return call.Pos(), true
				}
			}
		}
	}
	return token.NoPos, false
}

// isMapRange reports whether a range statement iterates in map order:
// a map-typed operand or a maps.Keys/Values/All iterator.
func (a *moWalker) isMapRange(x ast.Expr) bool {
	if call, ok := ast.Unparen(x).(*ast.CallExpr); ok {
		if name, ok := pkgCall(call, a.imports, "maps"); ok {
			return name == "Keys" || name == "Values" || name == "All"
		}
	}
	if tv, ok := a.p.Info.Types[x]; ok && tv.Type != nil {
		_, isMap := tv.Type.Underlying().(*types.Map)
		return isMap
	}
	return false
}

// isSliceLike reports whether e's type is a slice or array (the only
// containers whose fill order is observable downstream).
func (a *moWalker) isSliceLike(e ast.Expr) bool {
	tv, ok := a.p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

// stmt processes one statement. ordered is the position of the enclosing
// map-ordered range when inside one (NoPos otherwise): appends and
// emissions within such a body happen in map order.
func (a *moWalker) stmt(s ast.Stmt, ordered token.Pos) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range s.List {
			a.stmt(inner, ordered)
		}
	case *ast.LabeledStmt:
		a.stmt(s.Stmt, ordered)
	case *ast.IfStmt:
		if s.Init != nil {
			a.stmt(s.Init, ordered)
		}
		a.checkExprCalls(s.Cond, ordered)
		a.stmt(s.Body, ordered)
		if s.Else != nil {
			a.stmt(s.Else, ordered)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			a.stmt(s.Init, ordered)
		}
		a.stmt(s.Body, ordered)
		if s.Post != nil {
			a.stmt(s.Post, ordered)
		}
	case *ast.RangeStmt:
		inner := ordered
		if a.isMapRange(s.X) {
			inner = s.Pos()
		} else if pos, ok := a.exprTainted(s.X); ok {
			inner = pos
		}
		a.checkExprCalls(s.X, ordered)
		a.stmt(s.Body, inner)
	case *ast.SwitchStmt:
		if s.Init != nil {
			a.stmt(s.Init, ordered)
		}
		a.stmt(s.Body, ordered)
	case *ast.TypeSwitchStmt:
		a.stmt(s.Body, ordered)
	case *ast.SelectStmt:
		a.stmt(s.Body, ordered)
	case *ast.CaseClause:
		for _, inner := range s.Body {
			a.stmt(inner, ordered)
		}
	case *ast.CommClause:
		for _, inner := range s.Body {
			a.stmt(inner, ordered)
		}
	case *ast.ExprStmt:
		a.checkExprCalls(s.X, ordered)
	case *ast.DeferStmt:
		a.checkExprCalls(s.Call, ordered)
	case *ast.GoStmt:
		a.checkExprCalls(s.Call, ordered)
	case *ast.AssignStmt:
		a.assign(s, ordered)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						a.checkExprCalls(vs.Values[i], ordered)
						a.transfer(name, vs.Values[i], ordered)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			a.checkExprCalls(res, ordered)
			pos, ok := a.exprTainted(res)
			if !ok || !a.isSliceLike(res) {
				continue
			}
			if a.exported {
				a.report(res.Pos(), fmt.Sprintf("returning a slice ordered by the map range at line %d from an exported function; callers observe randomized order — sort before returning, or justify with //lint:allow maporder", a.p.Fset.Position(pos).Line))
			} else {
				a.returnTainted = true
			}
		}
	}
}

// assign applies taint transfer for one assignment and checks its
// right-hand calls for sinks/barriers.
func (a *moWalker) assign(s *ast.AssignStmt, ordered token.Pos) {
	for _, rhs := range s.Rhs {
		a.checkExprCalls(rhs, ordered)
	}
	// Parallel assignment: transfer per position when the shapes line up;
	// for the multi-value forms (x, ok := f()) only a tainted call taints
	// the first name.
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			a.transfer(s.Lhs[i], s.Rhs[i], ordered)
		}
		return
	}
	if len(s.Rhs) == 1 {
		a.transfer(s.Lhs[0], s.Rhs[0], ordered)
		for _, lhs := range s.Lhs[1:] {
			a.clear(lhs)
		}
	}
}

// transfer updates taint for lhs = rhs.
func (a *moWalker) transfer(lhs, rhs ast.Expr, ordered token.Pos) {
	// Indexed store out[i] = v inside a map-ordered body fills a slice in
	// map order, like an append.
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		if ordered.IsValid() && a.isSliceLike(idx.X) {
			a.taint(idx.X, ordered)
		}
		return
	}
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "append" && len(call.Args) > 0 {
			if pos, ok := a.appendTaint(call, ordered); ok {
				a.taint(lhs, pos)
			} else {
				a.clear(lhs)
			}
			return
		}
	}
	if pos, ok := a.exprTainted(rhs); ok {
		a.taint(lhs, pos)
	} else {
		a.clear(lhs)
	}
}

// appendTaint reports whether an append call produces a map-ordered
// slice: appending inside a map-ordered body, onto an already-tainted
// slice, or splatting a tainted slice.
func (a *moWalker) appendTaint(call *ast.CallExpr, ordered token.Pos) (token.Pos, bool) {
	if ordered.IsValid() {
		return ordered, true
	}
	for _, arg := range call.Args {
		if pos, ok := a.exprTainted(arg); ok {
			return pos, true
		}
	}
	return token.NoPos, false
}

func (a *moWalker) taint(e ast.Expr, origin token.Pos) {
	if o := a.baseObj(e); o != nil {
		a.tainted[o] = origin
	}
}

func (a *moWalker) clear(e ast.Expr) {
	if o := a.baseObj(e); o != nil {
		delete(a.tainted, o)
	}
}

// checkExprCalls scans an expression for calls, applying barrier and sink
// semantics in evaluation order, and walks function literals (which run
// with the enclosing taint state).
func (a *moWalker) checkExprCalls(e ast.Expr, ordered token.Pos) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			a.call(n, ordered)
		case *ast.FuncLit:
			for _, s := range n.Body.List {
				a.stmt(s, ordered)
			}
			return false
		}
		return true
	})
}

// sortBarrierNames are the in-place sorters of package sort; IsSorted
// predicates inspect without establishing order and are excluded.
var sortBarrierNames = map[string]bool{
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	"Strings": true, "Ints": true, "Float64s": true,
}

// call applies one call's effect: a sort barrier clears its arguments, an
// emission sink reports tainted arguments (or any emission inside a
// map-ordered body).
func (a *moWalker) call(call *ast.CallExpr, ordered token.Pos) {
	// Barriers first: sort.X(v), slices.SortX(v), or a local helper whose
	// name embeds "sort" (sortedKeys, SortFindings, ...).
	if name, ok := pkgCall(call, a.imports, "sort"); ok && sortBarrierNames[name] {
		a.clearArgs(call)
		return
	}
	if name, ok := pkgCall(call, a.imports, "slices"); ok && strings.HasPrefix(name, "Sort") {
		a.clearArgs(call)
		return
	}
	if lower := strings.ToLower(moCalleeName(call)); strings.Contains(lower, "sort") && !strings.Contains(lower, "unsort") {
		a.clearArgs(call)
		return
	}

	sink := a.sinkKind(call)
	if sink == "" {
		return
	}
	if ordered.IsValid() {
		a.report(call.Pos(), fmt.Sprintf("%s inside the map-ordered range at line %d; iteration order is randomized per run — collect, sort, then emit, or justify with //lint:allow maporder", sink, a.p.Fset.Position(ordered).Line))
		return
	}
	for _, arg := range call.Args {
		if pos, ok := a.exprTainted(arg); ok {
			a.report(call.Pos(), fmt.Sprintf("%s receives a value ordered by the map range at line %d with no sort barrier between; output is not byte-stable — sort first, or justify with //lint:allow maporder", sink, a.p.Fset.Position(pos).Line))
			return
		}
	}
}

// clearArgs removes taint from every argument of a barrier call.
func (a *moWalker) clearArgs(call *ast.CallExpr) {
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := a.obj(id); o != nil {
					delete(a.tainted, o)
				}
			}
			return true
		})
	}
}

// moCalleeName extracts the called function's bare name for the local
// sort-helper heuristic.
func moCalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// digestMethods are the update verbs of digest-like receivers.
var digestMethods = map[string]bool{
	"Add": true, "Update": true, "Merge": true, "Observe": true, "Mix": true,
}

// fmtEmitFuncs are the fmt functions that actually emit to a stream.
// Sprintf/Errorf and friends are pure value constructors — formatting a
// single message inside a map range is order-independent.
var fmtEmitFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// sinkKind classifies a call as an emission sink, returning a short
// description ("" when not a sink).
func (a *moWalker) sinkKind(call *ast.CallExpr) string {
	if name, ok := pkgCall(call, a.imports, "fmt"); ok {
		if !fmtEmitFuncs[name] {
			return ""
		}
		return "fmt." + name + " emits"
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	// Skip pkg.Func selectors: only method calls are stream/digest sinks,
	// and the fmt/sort/slices packages were classified above.
	if id, isIdent := sel.X.(*ast.Ident); isIdent {
		if _, isPkg := a.imports[id.Name]; isPkg {
			return ""
		}
	}
	if strings.HasPrefix(name, "Write") || name == "Encode" {
		return "." + name + " writes"
	}
	if digestMethods[name] {
		if tv, ok := a.p.Info.Types[sel.X]; ok && tv.Type != nil {
			tn := tv.Type.String()
			if strings.Contains(tn, "Digest") || strings.Contains(tn, "Fingerprint") {
				return "digest ." + name + " updates"
			}
		}
	}
	return ""
}
