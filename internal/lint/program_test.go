package lint

import (
	"go/ast"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestProgramAnalyzersAgainstFixtures mirrors the per-package fixture
// table for the whole-program rules: each must report exactly its
// `// want <rule>` markers.
func TestProgramAnalyzersAgainstFixtures(t *testing.T) {
	checkFixtureTable(t, lockOrder, falseShare, guardInfer, atomicMix, goEscape, mapOrder)
}

// TestRepoProgramIsClean extends the in-process CI gate to the
// whole-program rules: they must pass on the real tree (fixed or justified
// with //lint:allow).
func TestRepoProgramIsClean(t *testing.T) {
	for _, f := range run(t, loadTree(t), lockOrder, falseShare, guardInfer, atomicMix, goEscape, mapOrder) {
		t.Errorf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
	}
}

// TestLockRulesWalkOnce: the five rules that read held-lock sets, run
// together, share one walk — every function body visited exactly once,
// the callgraph built once.
func TestLockRulesWalkOnce(t *testing.T) {
	prog := loadTree(t)
	decls := 0
	prog.funcDecls(func(*Package, map[string]string, *ast.FuncDecl) { decls++ })
	run(t, prog, lockOrder)
	lf := prog.locks
	run(t, prog, lockDiscipline, guardInfer, atomicMix, goEscape)
	if lf == nil || prog.locks != lf || prog.lockFacts() != lf {
		t.Error("the lock rules did not share one set of facts and one callgraph")
	}
	if lf.walks != decls || decls == 0 {
		t.Errorf("walked %d function bodies, want each of the %d declarations once", lf.walks, decls)
	}
}

// TestParseEscapeOutput pins the compiler-output contract: only real
// allocation diagnostics survive, flow explanations and inliner chatter
// are dropped, and duplicates from multiple build units collapse.
func TestParseEscapeOutput(t *testing.T) {
	out := strings.Join([]string{
		"# repro/internal/hashtable",
		"internal/hashtable/hashtable.go:152:14: &bucket{} escapes to heap:",
		"internal/hashtable/hashtable.go:152:14:   flow: t.free = &{storage for &bucket{}}:",
		"internal/hashtable/hashtable.go:152:14:     from &bucket{} (spill) at internal/hashtable/hashtable.go:152:14",
		"internal/hashtable/hashtable.go:140:6: can inline (*Table).Insert",
		"internal/hashtable/hashtable.go:139:7: leaking param: t",
		"internal/lazy/npj.go:71:6: moved to heap: barrier",
		"# repro/internal/lazy [repro/internal/lazy.test]",
		"internal/lazy/npj.go:71:6: moved to heap: barrier",
		"internal/eager/shj.go:65:13: make(map[int32]int32) escapes to heap",
	}, "\n")
	got := parseEscapeOutput(out)
	want := []diagLine{
		{File: "internal/hashtable/hashtable.go", Line: 152, Col: 14, Msg: "&bucket{} escapes to heap"},
		{File: "internal/lazy/npj.go", Line: 71, Col: 6, Msg: "moved to heap: barrier"},
		{File: "internal/eager/shj.go", Line: 65, Col: 13, Msg: "make(map[int32]int32) escapes to heap"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseEscapeOutput = %+v, want %+v", got, want)
	}
}

// TestEscapeGateFixture is the positive control: build the seeded
// escfixture package with -m=2 and check exactly the in-loop allocation
// is reported — the per-run setup allocation in HotSetupOnly must pass.
func TestEscapeGateFixture(t *testing.T) {
	out, prog := buildFixtureDiag(t, "escfixture")
	spans := prog.hotSpans()
	if len(spans) != 2 {
		t.Fatalf("expected 2 hotpath spans in escfixture, got %+v", spans)
	}
	findings := matchEscapes(prog.Root, parseEscapeOutput(out), spans)
	if len(findings) != 1 {
		t.Fatalf("expected exactly 1 escapegate finding, got %+v", findings)
	}
	f := findings[0]
	if !strings.Contains(f.Msg, "HotLeaky") || !strings.Contains(f.Msg, "new([8]int)") {
		t.Errorf("finding does not name the leaky hotpath: %s", f.Msg)
	}
	if filepath.Base(f.Pos.Filename) != "escfixture.go" {
		t.Errorf("finding in %s, want escfixture.go", f.Pos.Filename)
	}
}

// TestEscapeGateRepoTree runs the gate over the module: the annotated
// kernels must not allocate in their loops.
func TestEscapeGateRepoTree(t *testing.T) {
	for _, f := range run(t, loadTree(t), escapeGate) {
		t.Errorf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
	}
}
