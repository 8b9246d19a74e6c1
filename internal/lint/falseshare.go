package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// cacheLine is the coherence granularity the analyzer models. Both x86-64
// and arm64 server parts use 64-byte lines.
const cacheLine = 64

// falseShare is the whole-program cache-line layout analyzer. For every
// struct type it computes field offsets — go/types sizing via
// types.SizesFor for resolvable types, plus a fixed table for the
// sync/atomic primitives the permissive type-checker sees only as
// stubs — and flags layouts where concurrently mutated state lands on a
// shared 64-byte line:
//
//   - a struct carrying latches or atomics that is used as a slice/array
//     element with a stride that is not a multiple of 64 bytes: adjacent
//     elements (distinct workers' slots, adjacent bucket latches)
//     false-share lines, which turns per-worker counters into cross-core
//     coherence traffic;
//   - a mutex and an atomic field (or two distinct mutexes) of one struct
//     on the same line: latch hand-offs invalidate the atomic's line and
//     vice versa, coupling two otherwise independent synchronization
//     domains.
//
// Concurrency reachability is approximated structurally: a struct is
// considered concurrently accessed when it contains sync latches or
// atomic fields — in this codebase (per-bucket latches, pooled
// freelists, the collector's memory gauge) exactly the shapes multiple
// goroutines touch.
// Each finding carries the concrete padding fix. Structs whose layout
// cannot be fully resolved (unknown external field types) are skipped
// rather than guessed.
var falseShare = Rule{
	Name:     "falseshare",
	Doc:      "no latch/atomic fields sharing a 64-byte cache line within or across slice elements (layout analysis)",
	Contract: "Per-thread counters and heads must be padded to a cache line; adjacent hot fields from different threads in one line serialize the memory system and flatten the scalability curves the paper is about.",
	Check:    checkFalseShare,
}

// layoutSizes sizes every layout for gc/amd64 whatever the host: the
// knownTypes table below is pinned to the 64-bit gc targets (amd64 and
// arm64 agree on every entry), and a report that moved with the machine
// running the linter could not be checked in as a golden.
var layoutSizes = types.SizesFor("gc", "amd64")

// fsKind classifies a field's synchronization role.
type fsKind int

const (
	fsPlain  fsKind = iota
	fsMutex         // sync.Mutex/RWMutex/WaitGroup/Once/Cond/Map
	fsAtomic        // sync/atomic value types
)

// fsField is one (possibly nested) field with resolved byte layout.
type fsField struct {
	path string // dotted field path from the struct root
	off  int64
	size int64
	kind fsKind
}

// fsLayout is a struct's resolved layout.
type fsLayout struct {
	size   int64
	align  int64
	fields []fsField
}

// fsEntry is a known fixed-size external type: size, align, kind.
type fsEntry struct {
	size, align int64
	kind        fsKind
}

// knownTypes sizes the stdlib concurrency (and time) types that the
// stub-import type-check cannot resolve. Values are gc/amd64 (and every
// other 64-bit gc target), verified against unsafe.Sizeof on go1.24.
var knownTypes = map[string]fsEntry{
	"sync.Mutex":     {8, 4, fsMutex},
	"sync.RWMutex":   {24, 4, fsMutex},
	"sync.WaitGroup": {16, 8, fsMutex},
	"sync.Once":      {12, 4, fsMutex},
	"sync.Cond":      {56, 8, fsMutex},
	"sync.Map":       {48, 8, fsMutex},

	"sync/atomic.Bool":    {4, 4, fsAtomic},
	"sync/atomic.Int32":   {4, 4, fsAtomic},
	"sync/atomic.Uint32":  {4, 4, fsAtomic},
	"sync/atomic.Int64":   {8, 8, fsAtomic},
	"sync/atomic.Uint64":  {8, 8, fsAtomic},
	"sync/atomic.Uintptr": {8, 8, fsAtomic},
	"sync/atomic.Pointer": {8, 8, fsAtomic},
	"sync/atomic.Value":   {16, 8, fsAtomic},

	"time.Time":     {24, 8, fsPlain},
	"time.Duration": {8, 8, fsPlain},
}

func checkFalseShare(prog *Program) []Finding {
	ly := &fsLayouter{prog: prog, cache: map[string]*fsLayout{}}
	elems := sliceElementTypes(prog)
	var out []Finding
	prog.structDecls(func(p *Package, imports map[string]string, ts *ast.TypeSpec, st *ast.StructType) {
		// An unresolvable field type yields no layout: skip, do not guess.
		if layout := ly.structLayout(p, imports, st); layout != nil {
			out = append(out, checkStruct(p, ts, layout, elems)...)
		}
	})
	return out
}

// checkStruct applies both line-sharing rules to one resolved struct.
func checkStruct(p *Package, ts *ast.TypeSpec, layout *fsLayout, elems map[string]bool) []Finding {
	var hot []fsField
	for _, f := range layout.fields {
		if f.kind != fsPlain {
			hot = append(hot, f)
		}
	}
	if len(hot) == 0 {
		return nil
	}
	var out []Finding

	// Rule A: hot struct used as a slice/array element with a stride that
	// is not a multiple of the cache line.
	if elems[p.Rel+"."+ts.Name.Name] && layout.size > 0 && layout.size%cacheLine != 0 {
		pad := cacheLine - layout.size%cacheLine
		out = append(out, p.finding(ts.Name.Pos(), "%s is %d bytes, carries %s, and is used as a slice/array element: adjacent elements false-share a %d-byte cache line; pad the struct with _ [%d]byte (to %d) or justify with //lint:allow falseshare",
			ts.Name.Name, layout.size, fieldList(hot), cacheLine, pad, layout.size+pad))
	}

	// Rule B: a mutex and an atomic (or two distinct mutexes) on one line
	// couple independent synchronization domains.
	for i := 0; i < len(hot); i++ {
		for j := i + 1; j < len(hot); j++ {
			x, y := hot[i], hot[j]
			if x.kind == fsAtomic && y.kind == fsAtomic {
				continue // atomics co-located with atomics: one domain
			}
			if !sameLine(x, y) {
				continue
			}
			if x.off > y.off {
				x, y = y, x
			}
			out = append(out, p.finding(ts.Name.Pos(), "%s.%s (%s, offset %d) and %s.%s (%s, offset %d) share a %d-byte cache line: traffic on one invalidates the other; move %s to its own line (insert _ [%d]byte before it) or justify with //lint:allow falseshare",
				ts.Name.Name, x.path, kindName(x.kind), x.off,
				ts.Name.Name, y.path, kindName(y.kind), y.off,
				cacheLine, y.path, cacheLine-y.off%cacheLine))
		}
	}
	return out
}

// sameLine reports whether two fields' byte ranges touch a common
// cache line.
func sameLine(a, b fsField) bool {
	aLo, aHi := a.off/cacheLine, (a.off+a.size-1)/cacheLine
	bLo, bHi := b.off/cacheLine, (b.off+b.size-1)/cacheLine
	return aLo <= bHi && bLo <= aHi
}

// fieldList renders hot field paths for messages.
func fieldList(hot []fsField) string {
	var names []string
	for _, f := range hot {
		names = append(names, f.path)
	}
	return "latch/atomic field(s) " + strings.Join(names, ", ")
}

func kindName(k fsKind) string {
	switch k {
	case fsMutex:
		return "latch"
	case fsAtomic:
		return "atomic"
	}
	return "plain"
}

// sliceElementTypes collects every struct type used as a slice or array
// element anywhere in the program, keyed "pkgRel.TypeName".
func sliceElementTypes(prog *Program) map[string]bool {
	out := map[string]bool{}
	for _, p := range prog.Packages {
		for _, f := range p.Files {
			imports := importNames(f)
			ast.Inspect(f, func(n ast.Node) bool {
				at, ok := n.(*ast.ArrayType)
				if !ok {
					return true
				}
				switch elt := at.Elt.(type) {
				case *ast.Ident:
					out[p.Rel+"."+elt.Name] = true
				case *ast.SelectorExpr:
					if x, ok := elt.X.(*ast.Ident); ok {
						if path, isImport := imports[x.Name]; isImport {
							if tp := prog.byImportPath(path); tp != nil {
								out[tp.Rel+"."+elt.Sel.Name] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// fsLayouter computes struct layouts across packages with memoization.
type fsLayouter struct {
	prog  *Program
	cache map[string]*fsLayout // "pkgRel.TypeName" -> layout (nil = failed)
}

// structLayout lays out a struct type expression in package p (whose file
// imports are given). Returns nil when any field's size is unknown.
func (ly *fsLayouter) structLayout(p *Package, imports map[string]string, st *ast.StructType) *fsLayout {
	layout := &fsLayout{align: 1}
	var off int64
	for _, field := range st.Fields.List {
		size, align, kind, sub := ly.typeLayout(p, imports, field.Type)
		if size < 0 {
			return nil
		}
		if align > layout.align {
			layout.align = align
		}
		names := fieldNames(field)
		for _, name := range names {
			if align > 0 {
				off = roundUp(off, align)
			}
			if name != "_" {
				if len(sub) > 0 {
					for _, sf := range sub {
						layout.fields = append(layout.fields, fsField{
							path: name + "." + sf.path, off: off + sf.off, size: sf.size, kind: sf.kind,
						})
					}
				} else {
					layout.fields = append(layout.fields, fsField{path: name, off: off, size: size, kind: kind})
				}
			}
			off += size
		}
	}
	layout.size = roundUp(off, layout.align)
	return layout
}

// fieldNames lists a field's declared names; embedded fields use the type
// name, blank fields stay "_" (padding: sized but not tracked).
func fieldNames(field *ast.Field) []string {
	if len(field.Names) == 0 {
		name := embeddedName(field.Type)
		return []string{name}
	}
	var out []string
	for _, n := range field.Names {
		out = append(out, n.Name)
	}
	return out
}

// embeddedName renders an embedded field's implicit name.
func embeddedName(t ast.Expr) string {
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return embeddedName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return embeddedName(x.X)
	}
	return "_"
}

// typeLayout resolves one type expression to (size, align, kind, nested
// fields). size < 0 signals an unresolvable type.
func (ly *fsLayouter) typeLayout(p *Package, imports map[string]string, t ast.Expr) (int64, int64, fsKind, []fsField) {
	word := layoutSizes.Sizeof(types.Typ[types.Uintptr])
	switch x := t.(type) {
	case *ast.Ident:
		if size, align, ok := ly.basicLayout(x.Name); ok {
			return size, align, fsPlain, nil
		}
		// Locally declared named type.
		if ts, tsImports := findTypeSpec(p, x.Name); ts != nil {
			return ly.namedLayout(p, tsImports, p.Rel+"."+x.Name, ts)
		}
		return -1, 0, fsPlain, nil
	case *ast.SelectorExpr:
		pkgID, ok := x.X.(*ast.Ident)
		if !ok {
			return -1, 0, fsPlain, nil
		}
		path, ok := imports[pkgID.Name]
		if !ok {
			return -1, 0, fsPlain, nil
		}
		if e, ok := knownTypes[path+"."+x.Sel.Name]; ok {
			return e.size, e.align, e.kind, nil
		}
		if tp := ly.prog.byImportPath(path); tp != nil {
			if ts, tsImports := findTypeSpec(tp, x.Sel.Name); ts != nil {
				return ly.namedLayout(tp, tsImports, tp.Rel+"."+x.Sel.Name, ts)
			}
		}
		return -1, 0, fsPlain, nil
	case *ast.StarExpr, *ast.ChanType, *ast.MapType, *ast.FuncType:
		return word, word, fsPlain, nil
	case *ast.ArrayType:
		if x.Len == nil {
			return 3 * word, word, fsPlain, nil // slice header
		}
		n, ok := ly.constInt(p, imports, x.Len)
		if !ok {
			return -1, 0, fsPlain, nil
		}
		esize, ealign, ekind, esub := ly.typeLayout(p, imports, x.Elt)
		if esize < 0 {
			return -1, 0, fsPlain, nil
		}
		stride := roundUp(esize, ealign)
		var sub []fsField
		// Expose element sub-fields of the first and last element so
		// per-slot arrays inside a struct participate in line checks
		// without exploding the field list.
		if ekind != fsPlain && n > 0 {
			sub = append(sub, fsField{path: "[0]", off: 0, size: esize, kind: ekind})
			if n > 1 {
				sub = append(sub, fsField{path: fmt.Sprintf("[%d]", n-1), off: stride * (n - 1), size: esize, kind: ekind})
			}
		}
		for _, sf := range esub {
			sub = append(sub, fsField{path: "[0]." + sf.path, off: sf.off, size: sf.size, kind: sf.kind})
		}
		return stride * n, ealign, fsPlain, sub
	case *ast.StructType:
		inner := ly.structLayout(p, imports, x)
		if inner == nil {
			return -1, 0, fsPlain, nil
		}
		return inner.size, inner.align, fsPlain, inner.fields
	case *ast.InterfaceType:
		return 2 * word, word, fsPlain, nil
	case *ast.IndexExpr: // generic instantiation, e.g. atomic.Pointer[T]
		return ly.typeLayout(p, imports, x.X)
	case *ast.IndexListExpr:
		return ly.typeLayout(p, imports, x.X)
	case *ast.ParenExpr:
		return ly.typeLayout(p, imports, x.X)
	}
	return -1, 0, fsPlain, nil
}

// namedLayout resolves a named type declared in package p, memoized by key.
func (ly *fsLayouter) namedLayout(p *Package, imports map[string]string, key string, ts *ast.TypeSpec) (int64, int64, fsKind, []fsField) {
	if cached, ok := ly.cache[key]; ok {
		if cached == nil {
			return -1, 0, fsPlain, nil
		}
		return cached.size, cached.align, fsPlain, cached.fields
	}
	if st, ok := ts.Type.(*ast.StructType); ok {
		ly.cache[key] = nil // break recursion
		layout := ly.structLayout(p, imports, st)
		ly.cache[key] = layout
		if layout == nil {
			return -1, 0, fsPlain, nil
		}
		return layout.size, layout.align, fsPlain, layout.fields
	}
	size, align, kind, sub := ly.typeLayout(p, imports, ts.Type)
	if size >= 0 {
		ly.cache[key] = &fsLayout{size: size, align: align, fields: sub}
	} else {
		ly.cache[key] = nil
	}
	return size, align, kind, sub
}

// basicLayout sizes Go's predeclared types (error and any included).
func (ly *fsLayouter) basicLayout(name string) (int64, int64, bool) {
	tn, ok := types.Universe.Lookup(name).(*types.TypeName)
	if !ok {
		return 0, 0, false
	}
	return layoutSizes.Sizeof(tn.Type()), layoutSizes.Alignof(tn.Type()), true
}

// constInt evaluates a compile-time integer length expression: literals
// and locally declared constants via the permissive check's constant
// values, a cross-package constant (pkg.Name) via the scope of the loaded
// package the file imports under that name.
func (ly *fsLayouter) constInt(p *Package, imports map[string]string, e ast.Expr) (int64, bool) {
	var val constant.Value
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
		val = tv.Value
	} else if sel, ok := e.(*ast.SelectorExpr); ok {
		if c := ly.prog.importedConst(imports, sel); c != nil {
			val = c.Val()
		}
	}
	if val == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(val))
}

// importedConst resolves pkg.Name to a constant declared at the top level
// of a loaded package, or nil.
func (prog *Program) importedConst(imports map[string]string, sel *ast.SelectorExpr) *types.Const {
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	path, ok := imports[x.Name]
	if !ok {
		return nil
	}
	tp := prog.byImportPath(path)
	if tp == nil || tp.Types == nil {
		return nil
	}
	c, _ := tp.Types.Scope().Lookup(sel.Sel.Name).(*types.Const)
	return c
}

// findTypeSpec locates a named type's declaration in p, returning the
// spec and the import map of the file declaring it.
func findTypeSpec(p *Package, name string) (*ast.TypeSpec, map[string]string) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == name {
					return ts, importNames(f)
				}
			}
		}
	}
	return nil, nil
}

func roundUp(n, align int64) int64 {
	if align <= 0 {
		return n
	}
	return (n + align - 1) / align * align
}
