// Package lint is the repo-specific static-analysis engine guarding the
// reproduction's correctness invariants: determinism (simulated time flows
// through internal/clock, never raw wall-clock reads), lock discipline,
// goroutine join discipline, allocation-free hot paths, and the panic
// policy for library code.
//
// The engine is stdlib-only (go/ast, go/parser, go/types). Every rule is
// one row of the Rules table: a name, a one-line doc, the contract
// paragraph `iawjlint -explain` prints, a severity, and a check over the
// whole Program. Rules are syntactic-first with best-effort type
// information: each package is type-checked in isolation against stub
// imports, which resolves all locally declared objects — enough for scope
// questions like "is this append target captured?" — without needing
// export data for dependencies. What several rules need is built once and
// owned by the Program: the held-lock walk (lockwalk.go), the
// //iawj:hotpath spans, and the compiler-diagnostics build the three
// gates parse.
//
// Two escape hatches exist for sanctioned violations:
//
//   - a `//lint:allow <rule> <reason>` comment on the offending line or
//     the line directly above it (the reason is mandatory: a reasonless
//     allow suppresses nothing and is reported by the `allow` rule), and
//   - a per-rule path allowlist (pathAllow) for whole packages whose job
//     is the violation, e.g. internal/clock wrapping time.Now.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Severity ranks findings; any finding fails the CI gate, the rank only
// orders reports.
type Severity int

// Error findings are correctness hazards; Warn findings are hygiene.
const (
	Warn Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warn"
}

// Finding is one diagnostic with a stable position. A rule's check fills
// Pos and Msg; Run stamps Rule and Sev from the table row.
type Finding struct {
	Rule string
	Sev  Severity
	Pos  token.Position
	Msg  string
}

// Rule is one row of the rule table.
type Rule struct {
	// Name is the identifier used by //lint:allow and -rules.
	Name string
	// Doc is the one-line description -list prints.
	Doc string
	// Contract is the paragraph -explain prints: what the rule proves, why
	// the repro depends on it, and which escape hatches are sanctioned —
	// what a reviewer reads before writing a //lint:allow.
	Contract string
	// Sev ranks every finding of the rule.
	Sev Severity
	// Check reports the rule's findings over every loaded package.
	Check func(*Program) []Finding
}

// Rules is the table, in -list order: the per-package AST rules, the
// whole-program rules, the three compiler-diagnostics gates, and the
// check on the escape hatch itself.
var Rules = []Rule{
	determinism, lockDiscipline, goroutineLeak, hotPathAlloc, panicPolicy, traceRing,
	lockOrder, falseShare, guardInfer, atomicMix, goEscape, mapOrder,
	escapeGate, bceGate, inlineGate,
	allowReason,
}

// Run applies the rules to the program and returns the findings that no
// escape hatch covers, sorted by position. The error is a failed
// diagnostics build: the gates cannot report on a tree that does not
// compile.
func Run(prog *Program, rules []Rule) ([]Finding, error) {
	var out []Finding
	for _, r := range rules {
		out = append(out, prog.keep(r, r.Check(prog))...)
	}
	sortFindings(out)
	return out, prog.diagErr
}

// keep stamps a rule's findings with its name and severity and drops
// those its path allowlist or an allow comment covers. A finding is
// attributed to the loaded package whose directory holds its file.
func (prog *Program) keep(r Rule, found []Finding) []Finding {
	var out []Finding
	for _, f := range found {
		f.Rule, f.Sev = r.Name, r.Sev
		if p := prog.byDir[filepath.Dir(f.Pos.Filename)]; p != nil {
			if pathAllowed(r.Name, p.Rel) || p.allowed(r.Name, f.Pos) {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// pathAllow maps rule name to slash-separated path prefixes (relative to
// the module root) where the rule does not apply: sanctioned call sites
// whose whole purpose is the flagged construct.
var pathAllow = map[string][]string{
	// internal/clock is the one sanctioned wall-clock wrapper; the
	// metrics harness measures real elapsed time by design.
	"determinism": {"internal/clock", "internal/metrics"},
}

// pathAllowed reports whether the rule is allowlisted for the package's
// module-relative path.
func pathAllowed(rule, rel string) bool {
	for _, prefix := range pathAllow[rule] {
		if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
			return true
		}
	}
	return false
}

// allowRe matches the escape-hatch comment: //lint:allow <rule> <reason>.
var allowRe = regexp.MustCompile(`^//lint:allow\s+([a-z]+)(?:\s+(.*))?$`)

// parseAllow matches one comment against the escape hatch, returning the
// rule it names and whether it states a reason.
func parseAllow(c *ast.Comment) (rule string, reasoned, ok bool) {
	m := allowRe.FindStringSubmatch(c.Text)
	if m == nil {
		return "", false, false
	}
	return m[1], strings.TrimSpace(m[2]) != "", true
}

// allowComments visits every escape-hatch comment of the package.
func (p *Package) allowComments(visit func(c *ast.Comment, rule string, reasoned bool)) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rule, reasoned, ok := parseAllow(c); ok {
					visit(c, rule, reasoned)
				}
			}
		}
	}
}

// allowed reports whether a reasoned allow comment for the rule sits on
// the finding's line or the line directly above it.
func (p *Package) allowed(rule string, pos token.Position) bool {
	if p.allows == nil {
		p.allows = map[string]map[int][]string{}
		p.allowComments(func(c *ast.Comment, r string, reasoned bool) {
			if !reasoned {
				return
			}
			at := p.Fset.Position(c.Pos())
			if p.allows[at.Filename] == nil {
				p.allows[at.Filename] = map[int][]string{}
			}
			p.allows[at.Filename][at.Line] = append(p.allows[at.Filename][at.Line], r)
		})
	}
	byLine := p.allows[pos.Filename]
	return slices.Contains(byLine[pos.Line], rule) || slices.Contains(byLine[pos.Line-1], rule)
}

// allowReason is the rule on the escape hatch itself: LINTING.md says
// "always state the reason", and an allow that does not is worth nothing
// to the reviewer who meets it later.
var allowReason = Rule{
	Name:     "allow",
	Doc:      "every //lint:allow states its reason; a reasonless allow suppresses nothing",
	Contract: "An allow comment is a reviewed exception, and the review is the reason written next to it: `//lint:allow <rule> <reason>`. A comment that names a rule but gives no reason does not suppress the finding it sits on and is itself reported, so a sanctioned violation can never enter the tree without saying why it is sanctioned.",
	Sev:      Error,
	Check: func(prog *Program) []Finding {
		var out []Finding
		for _, p := range prog.Packages {
			p.allowComments(func(c *ast.Comment, rule string, reasoned bool) {
				if !reasoned {
					out = append(out, p.finding(c.Pos(), "//lint:allow %s states no reason and suppresses nothing; write //lint:allow %s <why this finding is sanctioned>", rule, rule))
				}
			})
		}
		return out
	},
}

// Package is one parsed directory of non-test Go files plus best-effort
// type information.
type Package struct {
	// Dir is the absolute directory.
	Dir string
	// Rel is the slash path relative to the module root ("" at the
	// root); path allowlists match against it.
	Rel string
	// Fset positions all files.
	Fset *token.FileSet
	// Files holds the parsed files in filename order.
	Files []*ast.File
	// Info carries Defs/Uses from the permissive type-check; lookups
	// may miss for identifiers that depend on unresolved imports.
	Info *types.Info
	// Types is the permissively checked package; its scope resolves
	// package-level names for other packages' rules.
	Types *types.Package

	allows map[string]map[int][]string // file -> line -> rules with a reasoned allow
}

// finding positions one diagnostic in the package's file set.
func (p *Package) finding(pos token.Pos, format string, args ...any) Finding {
	return Finding{Pos: p.Fset.Position(pos), Msg: fmt.Sprintf(format, args...)}
}

// stubImporter satisfies go/types with empty placeholder packages so a
// package can be checked without export data; selector errors on those
// stubs are discarded by the permissive config.
type stubImporter struct{ cache map[string]*types.Package }

func (si stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := si.cache[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	si.cache[path] = p
	return p, nil
}

// Load parses every non-test .go file in dir into a Package. root anchors
// the Rel path; includeTests additionally parses _test.go files.
func Load(dir, root string, includeTests bool) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		rel = ""
	}
	p := &Package{
		Dir:   dir,
		Rel:   filepath.ToSlash(rel),
		Fset:  fset,
		Files: files,
		Info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	conf := types.Config{
		Importer:    stubImporter{cache: map[string]*types.Package{}},
		Error:       func(error) {}, // stub imports guarantee errors; ignore them
		FakeImportC: true,
	}
	// The check is best-effort: local declarations resolve even when
	// imported names cannot, so its error is expected and discarded.
	p.Types, _ = conf.Check(p.Rel, fset, files, p.Info)
	return p, nil
}

// Program is the whole-program view every rule checks: the loaded
// packages, indexed by module-relative path and by directory, plus the
// three things more than one rule needs, each built on first use and at
// most once.
type Program struct {
	// Root is the module root; the gates' diagnostics build runs there.
	Root string
	// Packages holds the loaded packages in Rel order.
	Packages []*Package

	byRel map[string]*Package
	byDir map[string]*Package

	// locks is the held-lock walk (lockwalk.go) under lockorder,
	// lockdiscipline, guardinfer, atomicmix and goescape.
	locks *lockFacts
	// spans are the //iawj:hotpath function extents escapegate and
	// bcegate anchor compiler diagnostics to.
	spans []hotSpan
	// diagOut is the output of the one -gcflags diagnostics build the
	// three gates parse; diagErr is its failure, which Run returns.
	diagOut  string
	diagErr  error
	diagRuns int
}

// NewProgram assembles a Program from loaded packages (nils are skipped).
func NewProgram(root string, pkgs []*Package) *Program {
	prog := &Program{Root: root, byRel: map[string]*Package{}, byDir: map[string]*Package{}}
	for _, p := range pkgs {
		if p == nil {
			continue
		}
		prog.Packages = append(prog.Packages, p)
		prog.byRel[p.Rel] = p
		prog.byDir[p.Dir] = p
	}
	sort.Slice(prog.Packages, func(i, j int) bool { return prog.Packages[i].Rel < prog.Packages[j].Rel })
	return prog
}

// byImportPath resolves an import path to a loaded package by matching the
// path's module-relative suffix (the module name prefix is unknown to the
// loader, so "repro/internal/tuple" matches the package at Rel
// "internal/tuple"). Stdlib and unloaded paths return nil.
func (prog *Program) byImportPath(path string) *Package {
	for {
		if p, ok := prog.byRel[path]; ok {
			return p
		}
		i := strings.Index(path, "/")
		if i < 0 {
			return nil
		}
		path = path[i+1:]
	}
}

// funcDecls visits every function declaration that has a body, in
// package, file and source order, with the import map of its file.
func (prog *Program) funcDecls(visit func(p *Package, imports map[string]string, fn *ast.FuncDecl)) {
	for _, p := range prog.Packages {
		for _, f := range p.Files {
			imports := importNames(f)
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
					visit(p, imports, fn)
				}
			}
		}
	}
}

// structDecls visits every named struct type declaration with the import
// map of the file declaring it.
func (prog *Program) structDecls(visit func(p *Package, imports map[string]string, ts *ast.TypeSpec, st *ast.StructType)) {
	for _, p := range prog.Packages {
		for _, f := range p.Files {
			imports := importNames(f)
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if st, ok := ts.Type.(*ast.StructType); ok {
							visit(p, imports, ts, st)
						}
					}
				}
			}
		}
	}
}

// buildDiagFlags is the one gcflags string behind all three gates: -m=2
// feeds escapegate (heap-allocation diagnostics) and inlinegate (inliner
// verdicts with costs), -d=ssa/check_bce/debug=1 feeds bcegate (residual
// bounds checks). One compiler invocation means `make check` pays the
// diagnostics build once, and repeat runs replay it from the build cache.
const buildDiagFlags = "-m=2 -d=ssa/check_bce/debug=1"

// buildDiag runs `go build -gcflags="-m=2 -d=ssa/check_bce/debug=1" ./...`
// in the module root on first call and returns the combined compiler
// output; later calls return the same text. It runs in Root, not in the
// process working directory, so the gates do not depend on where the
// driver was started. A failed build yields no output and sets diagErr.
func (prog *Program) buildDiag() string {
	if prog.diagRuns == 0 {
		prog.diagRuns++
		cmd := exec.Command("go", "build", "-gcflags="+buildDiagFlags, "./...")
		cmd.Dir = prog.Root
		out, err := cmd.CombinedOutput()
		if err != nil {
			prog.diagErr = fmt.Errorf("lint: go build -gcflags=%q failed: %v\n%s", buildDiagFlags, err, out)
		} else {
			prog.diagOut = string(out)
		}
	}
	return prog.diagOut
}

// Walk returns every package directory under root, skipping testdata,
// vendor, and hidden directories — mirroring the go tool's ./... pattern.
func Walk(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// sortFindings stable-sorts findings by (file, line, column, rule,
// message) — the one report order, so the golden never churns on
// map-iteration order. The message tie-break matters when one rule
// reports twice at one position (e.g. two lock-order cycles anchored at
// the same edge).
func sortFindings(out []Finding) {
	sort.SliceStable(out, func(i, j int) bool {
		if c := comparePos(out[i].Pos, out[j].Pos); c != 0 {
			return c < 0
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Msg < out[j].Msg
	})
}

// comparePos orders positions by file, line, then column.
func comparePos(a, b token.Position) int {
	return cmp.Or(strings.Compare(a.Filename, b.Filename), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Column, b.Column))
}

// perPackage lifts a check that needs one package at a time into a table
// row's Check.
func perPackage(check func(*Package) []Finding) func(*Program) []Finding {
	return func(prog *Program) []Finding {
		var out []Finding
		for _, p := range prog.Packages {
			out = append(out, check(p)...)
		}
		return out
	}
}

// importNames maps each file-local import name to its import path,
// resolving renames; dot and blank imports are skipped.
func importNames(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			if imp.Name.Name == "." || imp.Name.Name == "_" {
				continue
			}
			name = imp.Name.Name
		}
		out[name] = path
	}
	return out
}

// pkgCall matches a call of the form name.Sel(...) where name is a
// file-local import name; it returns the selector name.
func pkgCall(call *ast.CallExpr, imports map[string]string, wantPath ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	path, ok := imports[id.Name]
	if !ok {
		return "", false
	}
	for _, w := range wantPath {
		if path == w {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

// exprString renders an expression for textual matching.
func exprString(e ast.Expr) string {
	var buf strings.Builder
	printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}

// hasMarker reports whether the function's doc comment carries the marker
// line.
func hasMarker(fn *ast.FuncDecl, marker string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// recvTypeName extracts a method's receiver type name, "" for functions.
func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// qualifiedName renders a declaration as Recv.Name or Name, the form the
// gates print.
func qualifiedName(fn *ast.FuncDecl) string {
	if r := recvTypeName(fn); r != "" {
		return r + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// rootIdent unwraps selector/index/slice expressions to the base
// identifier, e.g. s.runs[i] -> s.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its object via Uses then Defs.
func objOf(p *Package, id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}
