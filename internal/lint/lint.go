// Package lint is the repo-specific static-analysis engine guarding the
// reproduction's correctness invariants: determinism (simulated time flows
// through internal/clock, never raw wall-clock reads), allocation-free hot
// paths, and the compiler's escape, bounds-check and inlining verdicts on
// the kernels.
//
// The engine is stdlib-only (go/ast, go/parser, go/types). Every rule is
// one row of the Rules table: a name, a one-line doc, the contract
// paragraph `iawjlint -explain` prints, and a check over the whole
// Program. Rules are syntactic-first with best-effort type
// information: each package is type-checked in isolation against stub
// imports, which resolves all locally declared objects — enough for scope
// questions like "is this append target captured?" — without needing
// export data for dependencies. What several rules need is built once and
// owned by the Program: the //iawj:hotpath spans and the
// compiler-diagnostics build the three gates parse.
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

// Finding is one diagnostic with a stable position. A rule's check fills
// Pos and Msg; Run stamps Rule from the table row. Every finding fails the
// gate.
type Finding struct {
	Rule string
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
	// Check reports the rule's findings over every loaded package.
	Check func(*Program) []Finding
}

// Rules is the table, in -list order: the per-package AST rules, the
// three compiler-diagnostics gates, and the check on the escape hatch
// itself.
var Rules = []Rule{
	determinism, hotPathAlloc,
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

// keep stamps a rule's findings with its name and drops
// those its path allowlist or an allow comment covers. A finding is
// attributed to the loaded package whose directory holds its file.
func (prog *Program) keep(r Rule, found []Finding) []Finding {
	var out []Finding
	for _, f := range found {
		f.Rule = r.Name
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
	// internal/clock is the one wall-clock reader: the run's clock, the
	// sender's pacing and every Stopwatch, the phase clock's included.
	"determinism": {"internal/clock"},
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
// to the reviewer who meets it later; nor is one naming a rule the table
// does not have.
var allowReason = Rule{
	Name:     "allow",
	Doc:      "every //lint:allow names a rule of the table and states its reason; any other allow suppresses nothing",
	Contract: "An allow comment is a reviewed exception, and the review is the reason written next to it: `//lint:allow <rule> <reason>`. A comment that names a rule but gives no reason does not suppress the finding it sits on and is itself reported, so a sanctioned violation can never enter the tree without saying why it is sanctioned. A comment naming no rule of the table (a typo, or a rule since retired) suppresses nothing either and is reported too, rather than sitting in the tree looking like a review.",
	Check:    checkAllows,
}

// ruleNames is the set of the table's rule names. init fills it: the
// allow rule is itself a row of Rules, so its check cannot refer to the
// table while the table initializes.
var ruleNames = map[string]bool{}

func init() {
	for _, r := range Rules {
		ruleNames[r.Name] = true
	}
}

func checkAllows(prog *Program) []Finding {
	var out []Finding
	for _, p := range prog.Packages {
		p.allowComments(func(c *ast.Comment, rule string, reasoned bool) {
			switch {
			case !ruleNames[rule]:
				out = append(out, p.finding(c.Pos(), "//lint:allow %s names no rule of the table and suppresses nothing; iawjlint -list prints the rules", rule))
			case !reasoned:
				out = append(out, p.finding(c.Pos(), "//lint:allow %s states no reason and suppresses nothing; write //lint:allow %s <why this finding is sanctioned>", rule, rule))
			}
		})
	}
	return out
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
	// Info carries Uses, Types and Selections from the permissive
	// type-check, the three maps hotpathalloc reads; lookups may miss for
	// identifiers that depend on unresolved imports.
	Info *types.Info

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
	_, _ = conf.Check(p.Rel, fset, files, p.Info)
	return p, nil
}

// Program is the whole-program view every rule checks: the loaded
// packages, indexed by directory, plus the two things more than one rule
// needs, each built on first use and at most once.
type Program struct {
	// Root is the module root; the gates' diagnostics build runs there.
	Root string
	// Packages holds the loaded packages in Rel order.
	Packages []*Package

	byDir map[string]*Package

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
	prog := &Program{Root: root, byDir: map[string]*Package{}}
	for _, p := range pkgs {
		if p == nil {
			continue
		}
		prog.Packages = append(prog.Packages, p)
		prog.byDir[p.Dir] = p
	}
	sort.Slice(prog.Packages, func(i, j int) bool { return prog.Packages[i].Rel < prog.Packages[j].Rel })
	return prog
}

// funcDecls visits every function declaration that has a body, in
// package, file and source order.
func (prog *Program) funcDecls(visit func(p *Package, fn *ast.FuncDecl)) {
	for _, p := range prog.Packages {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
					visit(p, fn)
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
// reports twice at one position.
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

// qualifiedName renders a declaration as Recv.Name or Name, the form the
// gates print.
func qualifiedName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
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
			return x.Name + "." + fn.Name.Name
		default:
			return fn.Name.Name
		}
	}
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
