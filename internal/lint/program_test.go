package lint

import (
	"go/ast"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

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
// escfixture package with -m=2 and check both allocations are reported —
// the one in HotLeaky's loop and the straight-line one in HotSetupOnly,
// since the gate's scope is the whole span.
func TestEscapeGateFixture(t *testing.T) {
	out, prog := buildFixtureDiag(t, "escfixture")
	spans := prog.hotSpans()
	if len(spans) != 2 {
		t.Fatalf("expected 2 hotpath spans in escfixture, got %+v", spans)
	}
	findings := kept(prog, escapeGate, matchEscapes(prog.Root, parseEscapeOutput(out), spans))
	if len(findings) != 2 {
		t.Fatalf("expected exactly 2 escapegate findings, got %+v", findings)
	}
	for i, name := range []string{"HotLeaky", "HotSetupOnly"} {
		f := findings[i]
		if !strings.Contains(f.Msg, name) || !strings.Contains(f.Msg, "new([8]int)") {
			t.Errorf("finding %d does not name %s's allocation: %s", i, name, f.Msg)
		}
		if filepath.Base(f.Pos.Filename) != "escfixture.go" {
			t.Errorf("finding in %s, want escfixture.go", f.Pos.Filename)
		}
	}
}

// TestAllocationConstructTable holds the two allocation rules to one
// owner per construct. allocfixture plants one //iawj:hotpath function per
// construct, each marked `// allocates` or `// heap-free`; its own test,
// run here by explicit path, confirms the marks with AllocsPerRun. Every
// allocating construct must then be reported by exactly one of escapegate
// and hotpathalloc, escapegate (the compiler's verdict) must report no
// heap-free one, and the calls through a func value or field, a cost
// rather than an allocation, must be hotpathalloc's.
func TestAllocationConstructTable(t *testing.T) {
	cmd := exec.Command("go", "test", "./internal/lint/testdata/src/allocfixture")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("allocfixture's marks do not hold: %v\n%s", err, out)
	}
	out, prog := buildFixtureDiag(t, "allocfixture")
	spans := prog.hotSpans()
	owners := map[string][]string{} // span name -> rules reporting it
	for _, f := range append(
		kept(prog, escapeGate, matchEscapes(prog.Root, parseEscapeOutput(out), spans)),
		kept(prog, hotPathAlloc, hotPathAlloc.Check(prog))...) {
		s := spanAt(spans, "", f.Pos.Filename, f.Pos.Line) // no rule name: every span counts
		if s == nil {
			t.Fatalf("finding outside every span: %+v", f)
		}
		if !slices.Contains(owners[s.Name], f.Rule) {
			owners[s.Name] = append(owners[s.Name], f.Rule)
		}
	}
	marks := constructMarks(prog)
	if len(marks) != len(spans) {
		t.Fatalf("%d marked constructs in %d hotpath spans; mark every row", len(marks), len(spans))
	}
	for name, mark := range marks {
		switch got := owners[name]; {
		case mark == "allocates" && len(got) != 1:
			t.Errorf("%s allocates and is reported by %v, want exactly one of escapegate and hotpathalloc", name, got)
		case mark == "heap-free" && slices.Contains(got, "escapegate"):
			t.Errorf("%s is heap-free but escapegate reports it", name)
		}
	}
	for _, name := range []string{"hotCallFuncValue", "hotCallFuncField"} {
		if !slices.Equal(owners[name], []string{"hotpathalloc"}) {
			t.Errorf("%s calls through a function value and is reported by %v, want hotpathalloc", name, owners[name])
		}
	}
}

// constructMarks maps each hotpath function of a fixture program to the
// `// allocates` or `// heap-free` mark inside its body.
func constructMarks(prog *Program) map[string]string {
	marks := map[string]string{}
	prog.funcDecls(func(p *Package, fn *ast.FuncDecl) {
		if !isHotPath(fn) {
			return
		}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					mark := strings.TrimPrefix(c.Text, "// ")
					if c.Pos() > fn.Body.Pos() && c.End() < fn.Body.End() && (mark == "allocates" || mark == "heap-free") {
						marks[qualifiedName(fn)] = mark
					}
				}
			}
		}
	})
	return marks
}

// TestEscapeGateRepoTree runs the gate over the module: the annotated
// kernels must not allocate in their loops.
func TestEscapeGateRepoTree(t *testing.T) {
	for _, f := range run(t, loadTree(t), escapeGate) {
		t.Errorf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
	}
}
