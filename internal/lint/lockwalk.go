package lint

// This file is the one held-lock walk under the five lock rules. It walks
// every function body once, simulating the set of locks held in syntactic
// order, and leaves one summary per function plus one callgraph:
//
//   - every Lock/RLock with the set held when it executes (lockorder's
//     acquisition-order edges and reentrancy), every blocking operation
//     under a held lock, and every resolvable call site with the set held
//     at it (lockorder's interprocedural half; the entry-set fixpoint);
//   - per innermost function body, the lock, unlock, deferred-unlock and
//     return positions lockdiscipline pairs textually;
//   - every syntactic access to a field of a tracked struct — who
//     accessed it (function), how (read/write, plain/atomic, sync/async)
//     and which locks were held locally (guardinfer, atomicmix);
//   - the held set at every identifier (goescape's common-latch test).
//
// A must-hold entry-set fixpoint then adds the locks held at every
// in-program call site of each unexported function, giving the
// interprocedural effective lockset per access.
//
// Constructor accesses are exempted by a publication heuristic: a local
// that provably holds a freshly created value (composite literal, new,
// constructor call) is single-goroutine until the value flows into a `go`
// statement, a channel send, or a global; accesses before that point
// cannot race. Receivers and parameters are never fresh.
//
// Known approximations, shared by all five rules and documented in
// LINTING.md: branches are merged (an unlock on any path releases), which
// matches the repo's style of straight-line latch sections; a deferred
// unlock correctly keeps the lock held to return; a deferred closure runs
// at return with a held set the walk cannot know, so only its own lock
// pairing is recorded; non-go closures are treated as executing inline
// (sort callbacks, hoisted kernels) with the same held set; RLock and
// Lock map to the same key; mutation through a method call or a stored
// alias (&s.f) is not a syntactic write; and exported functions are
// analysis roots that assume nothing held (tests and external callers
// reach them freely).
//
// Lock identity is the owning struct type plus field name
// (e.g. "internal/hashtable.Shared.storeMu"), resolved through the
// package's best-effort type information; locals fall back to a
// function-scoped name. Identity is per type, not per instance.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// funcID identifies one function declaration program-wide.
type funcID struct {
	pkg  string // Package.Rel
	recv string // receiver type name, "" for plain functions
	name string
}

func (id funcID) String() string {
	return id.pkg + "." + id.scope()
}

// scope renders the id within its package, for local-lock keys.
func (id funcID) scope() string {
	if id.recv != "" {
		return id.recv + "." + id.name
	}
	return id.name
}

func declID(p *Package, fn *ast.FuncDecl) funcID {
	return funcID{pkg: p.Rel, recv: recvTypeName(fn), name: fn.Name.Name}
}

// heldLock is one currently-held acquisition.
type heldLock struct {
	key  string
	expr string // printed mutex expression, for exact re-lock detection
}

// acquisition is one Lock/RLock and the set held when it executes.
type acquisition struct {
	heldLock
	held []heldLock
	pos  token.Pos
	// async marks go-launched closures: their acquisitions do not count
	// toward the enclosing function's synchronous behaviour, but their
	// internal ordering still holds program-wide.
	async bool
}

// blockOp is one blocking operation reached with locks held.
type blockOp struct {
	desc string
	held []string
	pos  token.Pos
}

// callSite is one call that resolves to declared functions, with the lock
// set held when it executes.
type callSite struct {
	callees []funcID
	held    []string
	pos     token.Pos
}

// lockEvent is one acquire/release call, identified textually.
type lockEvent struct {
	recv     string // printed receiver expression, e.g. "c.mu"
	method   string
	pos      token.Pos
	deferred bool
}

// lockBody is one innermost function body (a declaration's or a
// literal's) as lockdiscipline sees it.
type lockBody struct {
	locks, unlocks []lockEvent
	returns        []token.Pos
}

// funcLocks is one function's summary.
type funcLocks struct {
	id       funcID
	pkg      *Package
	acquires []acquisition
	blocks   bool // the body contains a synchronous blocking operation
	blockOps []blockOp
	calls    []callSite
	bodies   []*lockBody
}

// fieldKind classifies a struct field for the lockset rules.
type fieldKind int

const (
	plainField  fieldKind = iota
	syncField             // sync.Mutex/RWMutex/WaitGroup/...: lock events, not data
	atomicField           // sync/atomic value types, incl. slices/arrays of them
)

// trackedStruct is one named struct's field classification, keyed
// "pkgRel.TypeName" like falseshare's layouts.
type trackedStruct struct {
	latched bool // carries a direct or embedded sync.Mutex/RWMutex
	fields  map[string]fieldKind
}

// fieldAccess is one syntactic access to a tracked struct field.
type fieldAccess struct {
	owner  string // trackedStruct key
	field  string
	write  bool
	atomic bool     // via a sync/atomic call or an atomic.* method
	async  bool     // inside a go-launched closure: entry-held does not apply
	exempt bool     // pre-publication constructor/init access
	held   []string // lock keys held locally at the access
	fn     funcID
	pos    token.Position
}

// lockFacts is what the one walk leaves behind, program-wide.
type lockFacts struct {
	prog     *Program
	structs  map[string]*trackedStruct
	funcs    map[funcID]*funcLocks
	order    []funcID // declaration order, each id once
	byMethod map[string][]funcID
	// entry is the must-hold set at function entry (intersection over all
	// in-program call sites); exported functions and functions with no
	// observed callers hold nothing at entry.
	entry     map[funcID]map[string]bool
	accesses  []*fieldAccess
	identHeld map[*ast.Ident][]string
	walks     int // function declarations walked
}

// lockFacts builds (once) and returns the shared walk.
func (prog *Program) lockFacts() *lockFacts {
	if prog.locks != nil {
		return prog.locks
	}
	lf := &lockFacts{
		prog:      prog,
		structs:   collectStructs(prog),
		funcs:     map[funcID]*funcLocks{},
		byMethod:  map[string][]funcID{},
		entry:     map[funcID]map[string]bool{},
		identHeld: map[*ast.Ident][]string{},
	}
	prog.locks = lf
	// The callgraph's nodes first, so a body can resolve calls to
	// functions declared after it.
	prog.funcDecls(func(p *Package, _ map[string]string, fn *ast.FuncDecl) {
		id := declID(p, fn)
		if lf.funcs[id] != nil {
			return // a second init, or a build-tagged twin: one summary
		}
		lf.funcs[id] = &funcLocks{id: id, pkg: p}
		lf.order = append(lf.order, id)
		if id.recv != "" {
			lf.byMethod[id.name] = append(lf.byMethod[id.name], id)
		}
	})
	prog.funcDecls(func(p *Package, imports map[string]string, fn *ast.FuncDecl) {
		w := &lockWalker{lf: lf, p: p, imports: imports, sum: lf.funcs[declID(p, fn)], fresh: newFreshness(p, fn)}
		w.funcBody(fn.Body)
		lf.walks++
	})
	lf.propagateEntry()
	return lf
}

// effectiveHeld is the interprocedural lockset at an access: the locks
// held locally plus, for synchronous code, the locks held at every call
// site of the enclosing function. Goroutine bodies start with nothing
// held regardless of their spawner.
func (lf *lockFacts) effectiveHeld(a *fieldAccess) []string {
	out := append([]string(nil), a.held...)
	if !a.async {
		for k := range lf.entry[a.fn] {
			if !slices.Contains(out, k) {
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// fieldGroups partitions the accesses that pass keep by the field they
// touch, with the field keys sorted for a deterministic report order.
func (lf *lockFacts) fieldGroups(keep func(*fieldAccess) bool) ([][2]string, map[[2]string][]*fieldAccess) {
	groups := map[[2]string][]*fieldAccess{}
	var keys [][2]string
	for _, a := range lf.accesses {
		if !keep(a) {
			continue
		}
		k := [2]string{a.owner, a.field}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], a)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys, groups
}

// reach closes a function's synchronous lock behaviour over the
// callgraph: the locks it, or anything it calls, acquires (sorted), and
// whether any of them may block.
func (lf *lockFacts) reach(root funcID) (acquires []string, blocks bool) {
	seen := map[funcID]bool{root: true}
	keys := map[string]bool{}
	for stack := []funcID{root}; len(stack) > 0; {
		s := lf.funcs[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		blocks = blocks || s.blocks
		for _, a := range s.acquires {
			if !a.async {
				keys[a.key] = true
			}
		}
		for _, c := range s.calls {
			for _, callee := range c.callees {
				if !seen[callee] {
					seen[callee] = true
					stack = append(stack, callee)
				}
			}
		}
	}
	for k := range keys {
		acquires = append(acquires, k)
	}
	sort.Strings(acquires)
	return acquires, blocks
}

// collectStructs classifies every named struct's fields program-wide.
func collectStructs(prog *Program) map[string]*trackedStruct {
	out := map[string]*trackedStruct{}
	prog.structDecls(func(p *Package, imports map[string]string, ts *ast.TypeSpec, st *ast.StructType) {
		info := &trackedStruct{fields: map[string]fieldKind{}}
		for _, field := range st.Fields.List {
			kind, latch := classifyFieldType(imports, field.Type)
			for _, name := range fieldNames(field) {
				if name != "_" {
					info.fields[name] = kind
				}
			}
			if latch {
				info.latched = true
			}
		}
		out[p.Rel+"."+ts.Name.Name] = info
	})
	return out
}

// classifyFieldType maps a field's type expression to its lockset role and
// reports whether it is a struct-level latch (a direct or embedded
// sync.Mutex/RWMutex; per-slot latch arrays guard elements, not siblings).
func classifyFieldType(imports map[string]string, t ast.Expr) (fieldKind, bool) {
	switch x := t.(type) {
	case *ast.ParenExpr:
		return classifyFieldType(imports, x.X)
	case *ast.StarExpr:
		return classifyFieldType(imports, x.X)
	case *ast.IndexExpr: // generic instantiation, e.g. atomic.Pointer[T]
		return classifyFieldType(imports, x.X)
	case *ast.IndexListExpr:
		return classifyFieldType(imports, x.X)
	case *ast.ArrayType:
		kind, _ := classifyFieldType(imports, x.Elt)
		return kind, false
	case *ast.SelectorExpr:
		pkgID, ok := x.X.(*ast.Ident)
		if !ok {
			return plainField, false
		}
		path, ok := imports[pkgID.Name]
		if !ok {
			return plainField, false
		}
		if e, ok := knownTypes[path+"."+x.Sel.Name]; ok {
			switch e.kind {
			case fsMutex:
				latch := path == "sync" && (x.Sel.Name == "Mutex" || x.Sel.Name == "RWMutex")
				return syncField, latch
			case fsAtomic:
				return atomicField, false
			}
		}
	}
	return plainField, false
}

// namedType resolves an expression's type to its named type's object,
// unwrapping pointers; nil when the permissive check could not type it.
func namedType(p *Package, e ast.Expr) *types.TypeName {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// lockKey names a mutex expression program-wide. The preferred identity
// is package.OwnerType.field; package-level vars are package.var; locals
// fall back to a function-scoped textual name; expr is the printed mutex
// expression. Every rule reads held sets through these keys, so they agree
// across rules.
func lockKey(p *Package, fnScope string, mutex ast.Expr, expr string) heldLock {
	switch m := mutex.(type) {
	case *ast.SelectorExpr:
		if owner := namedType(p, m.X); owner != nil {
			return heldLock{p.Rel + "." + owner.Name() + "." + m.Sel.Name, expr}
		}
	case *ast.Ident:
		if obj := objOf(p, m); obj != nil && isGlobalObj(obj) {
			return heldLock{p.Rel + "." + m.Name, expr}
		}
	}
	return heldLock{p.Rel + "." + fnScope + ":" + expr, expr}
}

// resolve maps a call expression to candidate declared functions — the
// callgraph's edges. Resolution is best-effort and conservative:
// same-package functions and import-qualified module functions resolve
// exactly; method calls resolve by receiver type when the permissive check
// knows it, otherwise by unique method name across the program (capped, to
// avoid promiscuous names like String linking everything to everything).
func (lf *lockFacts) resolve(p *Package, imports map[string]string, call *ast.CallExpr) []funcID {
	declared := func(id funcID) []funcID {
		if lf.funcs[id] != nil {
			return []funcID{id}
		}
		return nil
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return declared(funcID{pkg: p.Rel, name: fun.Name})
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			if path, isImport := imports[x.Name]; isImport {
				if _, isPkg := p.Info.Uses[x].(*types.PkgName); isPkg {
					if tp := lf.prog.byImportPath(path); tp != nil {
						return declared(funcID{pkg: tp.Rel, name: fun.Sel.Name})
					}
					return nil // stdlib or unloaded package
				}
			}
		}
		if named := namedType(p, fun.X); named != nil {
			if ids := declared(funcID{pkg: p.Rel, recv: named.Name(), name: fun.Sel.Name}); ids != nil {
				return ids
			}
		}
		// Unresolved receiver (cross-package value): all same-name
		// methods, capped.
		const maxCandidates = 8
		if cands := lf.byMethod[fun.Sel.Name]; len(cands) <= maxCandidates {
			return cands
		}
	}
	return nil
}

// lockWalker simulates held locks through one function declaration in
// syntactic order.
type lockWalker struct {
	lf      *lockFacts
	p       *Package
	imports map[string]string
	sum     *funcLocks
	fresh   *freshness

	body  *lockBody // innermost function body being walked
	held  []heldLock
	async bool // inside a go-launched closure
	// muted marks a deferred closure: it runs at return, when the held set
	// is unknown, so only its own lock pairing is recorded.
	muted bool
}

func (w *lockWalker) heldKeys() []string {
	var keys []string
	for _, h := range w.held {
		keys = append(keys, h.key)
	}
	return keys
}

// funcBody walks one function body — the declaration's or a literal's —
// as its own lock-pairing scope. The held set flows through: a closure
// that is neither launched nor deferred executes where it stands.
func (w *lockWalker) funcBody(body *ast.BlockStmt) {
	outer := w.body
	w.body = &lockBody{}
	w.sum.bodies = append(w.sum.bodies, w.body)
	w.walk(body)
	w.body = outer
}

// detached walks a closure that does not execute where it stands — the
// goroutine body of a go statement (async) or a deferred closure (muted)
// — from an empty held set, leaving the spawner's untouched.
func (w *lockWalker) detached(lit *ast.FuncLit, async, muted bool) {
	held, wasAsync, wasMuted := w.held, w.async, w.muted
	w.held, w.async, w.muted = nil, async, muted
	w.funcBody(lit.Body)
	w.held, w.async, w.muted = held, wasAsync, wasMuted
}

func (w *lockWalker) walk(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// Arguments evaluate synchronously; the body runs concurrently.
			for _, arg := range n.Call.Args {
				w.walk(arg)
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				w.detached(lit, true, w.muted)
			}
			return false
		case *ast.DeferStmt:
			// A deferred unlock releases at return: for held-set purposes
			// the lock stays held for the rest of the body.
			if ev, ok := asLockEvent(n.Call); ok {
				if ev.method == "Unlock" || ev.method == "RUnlock" {
					ev.deferred = true
					w.body.unlocks = append(w.body.unlocks, ev)
				}
			} else if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				w.detached(lit, w.async, true)
			}
			return false
		case *ast.FuncLit:
			w.funcBody(n.Body)
			return false
		case *ast.ReturnStmt:
			w.body.returns = append(w.body.returns, n.Pos())
		case *ast.SendStmt:
			w.block("a channel send", n.Pos())
		case *ast.SelectStmt:
			blocking := true
			for _, cl := range n.Body.List {
				if c, ok := cl.(*ast.CommClause); ok && c.Comm == nil {
					blocking = false // default clause: nonblocking poll
				}
			}
			if blocking {
				w.block("a select with no default", n.Pos())
			}
		case *ast.ForStmt:
			if n.Cond != nil && isClockGate(n.Cond) {
				w.block("a clock-gating busy-wait loop", n.Pos())
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				w.walk(rhs)
			}
			for _, lhs := range n.Lhs {
				w.lvalue(lhs)
			}
			return false
		case *ast.IncDecStmt:
			w.lvalue(n.X)
			return false
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				w.block("a channel receive", n.Pos())
			case token.AND:
				if owner, _, _ := w.fieldSelUnder(n.X); owner != "" {
					// Address-of neither reads nor writes the field; the
					// atomic.*(&s.f, ...) form is consumed by call().
					// Skipping keeps aliases out of the plain-access sets.
					w.touchIdents(n.X)
					return false
				}
			}
		case *ast.SelectorExpr:
			if owner, field, base := w.fieldSel(n); owner != "" {
				w.access(owner, field, n.Sel.Pos(), false, false, base)
				w.walk(n.X)
				return false
			}
		case *ast.CallExpr:
			w.call(n)
			return false
		case *ast.Ident:
			w.touch(n)
		}
		return true
	})
}

// touch records the current held set at one identifier.
func (w *lockWalker) touch(id *ast.Ident) {
	if !w.muted {
		w.lf.identHeld[id] = w.heldKeys()
	}
}

// touchIdents records the current held set for every identifier in a
// subtree that walk skips, keeping goescape's position map complete.
func (w *lockWalker) touchIdents(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			w.touch(id)
		}
		return true
	})
}

// block records one blocking operation.
func (w *lockWalker) block(desc string, pos token.Pos) {
	if w.muted {
		return
	}
	if !w.async {
		w.sum.blocks = true
	}
	if len(w.held) > 0 {
		w.sum.blockOps = append(w.sum.blockOps, blockOp{desc: desc, held: w.heldKeys(), pos: pos})
	}
}

// lvalue records the outermost tracked field write in an assignment
// target, walking index expressions and selector bases as reads.
func (w *lockWalker) lvalue(e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			w.walk(x.Index)
			e = x.X
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{x.Low, x.High, x.Max} {
				if bound != nil {
					w.walk(bound)
				}
			}
			e = x.X
		case *ast.SelectorExpr:
			if owner, field, base := w.fieldSel(x); owner != "" {
				w.access(owner, field, x.Sel.Pos(), true, false, base)
				w.walk(x.X)
				return
			}
			e = x.X
		case *ast.Ident:
			w.touch(x)
			return
		default:
			w.walk(e)
			return
		}
	}
}

// fieldSel matches a selector that reads or writes a data field of a
// tracked struct; method selectors fail the field-name check.
func (w *lockWalker) fieldSel(sel *ast.SelectorExpr) (owner, field string, base ast.Expr) {
	named := namedType(w.p, sel.X)
	if named == nil || named.Pkg() == nil {
		return "", "", nil
	}
	key := named.Pkg().Path() + "." + named.Name()
	st := w.lf.structs[key]
	if st == nil {
		return "", "", nil
	}
	if _, ok := st.fields[sel.Sel.Name]; !ok {
		return "", "", nil
	}
	return key, sel.Sel.Name, sel.X
}

// fieldSelUnder unwraps parens/indexing/derefs to the field selector, so
// t.heads[i] and (&s.f) resolve to their field.
func (w *lockWalker) fieldSelUnder(e ast.Expr) (owner, field string, base ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return w.fieldSel(x)
		default:
			return "", "", nil
		}
	}
}

// access records one tracked field access with its context.
func (w *lockWalker) access(owner, field string, pos token.Pos, write, atomic bool, base ast.Expr) {
	if w.muted || w.lf.structs[owner].fields[field] == syncField {
		return // latch fields are lock events, not data
	}
	exempt := false
	if root := rootIdent(base); root != nil {
		if obj := objOf(w.p, root); obj != nil && w.fresh.freshAt(obj, pos) {
			exempt = true
		}
	}
	w.lf.accesses = append(w.lf.accesses, &fieldAccess{
		owner: owner, field: field, write: write, atomic: atomic,
		async: w.async, exempt: exempt, held: w.heldKeys(),
		fn: w.sum.id, pos: w.p.Fset.Position(pos),
	})
}

// atomicMethods are the value-type methods of sync/atomic.
var atomicMethods = map[string]bool{
	"Load": true, "Store": true, "Add": true, "Swap": true,
	"CompareAndSwap": true, "Or": true, "And": true,
}

// atomicWrites reports whether an atomic operation name mutates.
func atomicWrites(name string) bool {
	return !strings.HasPrefix(name, "Load")
}

// asLockEvent matches recv.Lock()/RLock()/Unlock()/RUnlock() calls.
func asLockEvent(call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return lockEvent{recv: exprString(sel.X), method: sel.Sel.Name, pos: call.Pos()}, true
	}
	return lockEvent{}, false
}

// call handles one call expression: lock events mutate the held set,
// Wait/Sleep are blocking operations, sync/atomic operations become atomic
// accesses, everything else becomes a callgraph edge.
func (w *lockWalker) call(call *ast.CallExpr) {
	walkArgs := func() {
		for _, arg := range call.Args {
			w.walk(arg)
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if ev, ok := asLockEvent(call); ok {
			w.touchIdents(sel.X)
			lock := lockKey(w.p, w.sum.id.scope(), sel.X, ev.recv)
			if ev.method == "Lock" || ev.method == "RLock" {
				w.body.locks = append(w.body.locks, ev)
				if !w.muted {
					w.sum.acquires = append(w.sum.acquires, acquisition{heldLock: lock, held: w.held, pos: call.Pos(), async: w.async})
				}
				w.held = append(w.held, lock)
				return
			}
			w.body.unlocks = append(w.body.unlocks, ev)
			for i := len(w.held) - 1; i >= 0; i-- {
				if w.held[i].key == lock.key {
					// The full slice expression forces a copy, so the held
					// sets already recorded keep their contents.
					w.held = append(w.held[:i:i], w.held[i+1:]...)
					break
				}
			}
			return
		}
		// Method call on an atomic-typed field: s.size.Add(1),
		// t.heads[i].CompareAndSwap(old, new).
		if owner, field, base := w.fieldSelUnder(sel.X); owner != "" {
			if w.lf.structs[owner].fields[field] == atomicField && atomicMethods[sel.Sel.Name] {
				w.access(owner, field, sel.X.Pos(), atomicWrites(sel.Sel.Name), true, base)
				w.touchIdents(sel.X)
				walkArgs()
				return
			}
		}
		// Package function on a plain field: atomic.AddInt64(&s.n, 1).
		if name, ok := pkgCall(call, w.imports, "sync/atomic"); ok {
			for i, arg := range call.Args {
				if un, ok := arg.(*ast.UnaryExpr); ok && i == 0 && un.Op == token.AND {
					if owner, field, base := w.fieldSelUnder(un.X); owner != "" {
						w.access(owner, field, un.X.Pos(), atomicWrites(name), true, base)
						w.touchIdents(un.X)
						continue
					}
				}
				w.walk(arg)
			}
			return
		}
		if name, ok := pkgCall(call, w.imports, "time"); ok && name == "Sleep" {
			w.block("time.Sleep", call.Pos())
		}
	}
	walkArgs()
	w.walk(call.Fun)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
		w.block("a Wait call", call.Pos())
		return
	}
	if w.muted {
		return
	}
	if callees := w.lf.resolve(w.p, w.imports, call); len(callees) > 0 {
		w.sum.calls = append(w.sum.calls, callSite{callees: callees, held: w.heldKeys(), pos: call.Pos()})
	}
}

// isClockGate reports whether a for-loop condition polls simulated time —
// the arrival-gating busy-wait of the eager algorithms (clock.Source.Avail
// / NowMs / NowUs). Spinning on the clock while holding a latch stalls
// every contender for real milliseconds.
func isClockGate(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Avail", "NowMs", "NowUs":
					found = true
				}
			}
		}
		return true
	})
	return found
}

// propagateEntry computes the must-hold entry set of every unexported
// function: the intersection over all in-program call sites of the
// caller's entry set plus the locks held at the site. Exported functions,
// init, main, and functions with no observed callers are roots holding
// nothing — tests and external callers reach them freely. The iteration
// only ever shrinks sets, so it terminates through recursion.
func (lf *lockFacts) propagateEntry() {
	type site struct {
		caller funcID
		held   []string
	}
	callers := map[funcID][]site{}
	for _, id := range lf.order {
		for _, c := range lf.funcs[id].calls {
			for _, callee := range c.callees {
				callers[callee] = append(callers[callee], site{caller: id, held: c.held})
			}
		}
	}
	isRoot := func(id funcID) bool {
		return callers[id] == nil || ast.IsExported(id.name) || id.name == "init" || id.name == "main"
	}
	for _, id := range lf.order {
		if isRoot(id) {
			lf.entry[id] = map[string]bool{}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, id := range lf.order {
			if isRoot(id) {
				continue
			}
			var next map[string]bool
			for _, s := range callers[id] {
				ce, ok := lf.entry[s.caller]
				if !ok {
					continue // caller unconstrained so far
				}
				cand := map[string]bool{}
				for k := range ce {
					cand[k] = true
				}
				for _, k := range s.held {
					cand[k] = true
				}
				if next == nil {
					next = cand
					continue
				}
				for k := range next {
					if !cand[k] {
						delete(next, k)
					}
				}
			}
			if next == nil {
				continue
			}
			cur, ok := lf.entry[id]
			if !ok {
				lf.entry[id] = next
				changed = true
				continue
			}
			for k := range cur {
				if !next[k] {
					delete(cur, k)
					changed = true
				}
			}
		}
	}
}

// freshness tracks, per function body, which locals hold provably
// unpublished values — the constructor/single-goroutine-init heuristic.
type freshness struct {
	p         *Package
	freshFrom map[types.Object]token.Pos
	unfresh   map[types.Object]token.Pos // first reassignment to a shared value
	pub       map[types.Object]token.Pos // first flow into go/send/global
}

// newFreshness scans a function body in syntactic order, classifying
// local bindings as fresh (composite literal, new/make, constructor call,
// or propagation from another fresh local) and recording where each fresh
// value publishes.
func newFreshness(p *Package, fn *ast.FuncDecl) *freshness {
	fr := &freshness{
		p:         p,
		freshFrom: map[types.Object]token.Pos{},
		unfresh:   map[types.Object]token.Pos{},
		pub:       map[types.Object]token.Pos{},
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				for _, lhs := range n.Lhs {
					if _, ok := lhs.(*ast.Ident); !ok {
						fr.publishTarget(lhs, nil, n.Pos())
					}
				}
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					fr.publishTarget(lhs, n.Rhs[i], n.Pos())
					continue
				}
				obj := objOf(p, id)
				if obj == nil || id.Name == "_" {
					continue
				}
				if isGlobalObj(obj) {
					fr.publishExpr(n.Rhs[i], n.Pos())
					continue
				}
				if fr.isFreshExpr(n.Rhs[i], n.Pos()) {
					if _, ok := fr.freshFrom[obj]; !ok {
						fr.freshFrom[obj] = n.Pos()
					}
				} else if _, ok := fr.freshFrom[obj]; ok {
					if _, done := fr.unfresh[obj]; !done {
						fr.unfresh[obj] = n.Pos()
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				obj := p.Info.Defs[id]
				if obj == nil || id.Name == "_" {
					continue
				}
				if len(n.Values) == 0 || (i < len(n.Values) && fr.isFreshExpr(n.Values[i], id.Pos())) {
					fr.freshFrom[obj] = id.Pos()
				}
			}
		case *ast.GoStmt:
			fr.publishExpr(n.Call, n.Pos())
			return false
		case *ast.SendStmt:
			fr.publishExpr(n.Value, n.Pos())
		}
		return true
	})
	return fr
}

// publishTarget handles a store through a selector/index target: storing
// into a fresh local keeps the structure private; storing anywhere else
// publishes the fresh values on the right-hand side.
func (fr *freshness) publishTarget(lhs, rhs ast.Expr, pos token.Pos) {
	if root := rootIdent(lhs); root != nil {
		if obj := objOf(fr.p, root); obj != nil && !isGlobalObj(obj) && fr.freshAt(obj, pos) {
			return
		}
	}
	fr.publishExpr(rhs, pos)
}

// publishExpr marks every fresh local referenced in the expression as
// published at pos.
func (fr *freshness) publishExpr(e ast.Expr, pos token.Pos) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := objOf(fr.p, id)
		if obj == nil {
			return true
		}
		if _, fresh := fr.freshFrom[obj]; !fresh {
			return true
		}
		if cur, ok := fr.pub[obj]; !ok || pos < cur {
			fr.pub[obj] = pos
		}
		return true
	})
}

// isFreshExpr reports whether an expression yields a provably unaliased
// value at pos: literals, new/make, New*/new* constructor calls, or a
// still-fresh local.
func (fr *freshness) isFreshExpr(e ast.Expr, pos token.Pos) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.ParenExpr:
		return fr.isFreshExpr(x.X, pos)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return fr.isFreshExpr(x.X, pos)
		}
	case *ast.CallExpr:
		switch fun := x.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "make" || strings.HasPrefix(fun.Name, "new") || strings.HasPrefix(fun.Name, "New") {
				return true
			}
		case *ast.SelectorExpr:
			if strings.HasPrefix(fun.Sel.Name, "New") {
				return true
			}
		}
	case *ast.Ident:
		obj := objOf(fr.p, x)
		return obj != nil && fr.freshAt(obj, pos)
	}
	return false
}

// freshAt reports whether obj still holds an unpublished fresh value at
// pos.
func (fr *freshness) freshAt(obj types.Object, pos token.Pos) bool {
	from, ok := fr.freshFrom[obj]
	if !ok || pos < from {
		return false
	}
	if up, ok := fr.unfresh[obj]; ok && pos >= up {
		return false
	}
	if pp, ok := fr.pub[obj]; ok && pos >= pp {
		return false
	}
	return true
}

// isGlobalObj reports whether the object is package-scoped.
func isGlobalObj(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

func intersectsStr(a, b []string) bool {
	for _, x := range a {
		if slices.Contains(b, x) {
			return true
		}
	}
	return false
}
