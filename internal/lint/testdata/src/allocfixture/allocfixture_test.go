package allocfixture

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// TestMarksHold confirms every construct's mark with testing.AllocsPerRun:
// an `// allocates` function allocates on every call, a `// heap-free` one
// never does. Keys start at 1000, past the runtime's preallocated boxes
// for small integers.
func TestMarksHold(t *testing.T) {
	keys := make([]int, 12)
	names := make([]string, 12)
	for i := range keys {
		keys[i] = 1000 + 37*i
		names[i] = fmt.Sprintf("name-%04d", i)
	}
	emit := func(k int) { _ = k }
	calls := map[string]func(){
		"hotSprintf":         func() { hotSprintf(keys) },
		"hotEscapingClosure": func() { hotEscapingClosure(keys) },
		"hotLocalClosure":    func() { hotLocalClosure(keys) },
		"hotMakeSized":       func() { hotMakeSized(keys) },
		"hotMakeConst":       func() { hotMakeConst(keys) },
		"hotBoxEscaping":     func() { hotBoxEscaping(keys) },
		"hotBoxLocal":        func() { hotBoxLocal(keys) },
		"hotNew":             func() { hotNew(keys) },
		"hotNewStraight":     func() { hotNewStraight(keys[0]) },
		"hotAppendCaptured":  func() { hotAppendCaptured(keys) },
		"hotMapSized":        func() { hotMapSized(keys) },
		"hotMapLiteral":      func() { hotMapLiteral(keys) },
		"hotConcatLong":      func() { hotConcatLong(names) },
		"hotConcatAssign":    func() { hotConcatAssign(names) },
		"hotConcatShort":     func() { hotConcatShort(names) },
		"hotCallFuncValue":   func() { hotCallFuncValue(keys, emit) },
		"hotCallFuncField":   func() { hotCallFuncField(keys, emitter{emit}) },
	}
	marks := readMarks(t)
	if len(marks) != len(calls) {
		t.Fatalf("%d marked functions, %d measured; every row is measured", len(marks), len(calls))
	}
	var rows []string
	for name := range marks {
		rows = append(rows, name)
	}
	sort.Strings(rows)
	for _, name := range rows {
		mark := marks[name]
		call, ok := calls[name]
		if !ok {
			t.Errorf("%s is marked %q but not measured", name, mark)
			continue
		}
		allocs := testing.AllocsPerRun(20, call)
		t.Logf("%-20s %-9s %4.0f allocs/call", name, mark, allocs)
		if (allocs > 0) != (mark == "allocates") {
			t.Errorf("%s is marked %q but allocates %.0f times a call", name, mark, allocs)
		}
	}
}

// readMarks maps each function of allocfixture.go to the mark its
// construct line carries.
func readMarks(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allocfixture.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	marks := map[string]string{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				mark := strings.TrimPrefix(c.Text, "// ")
				if c.Pos() > fn.Pos() && c.End() < fn.End() && (mark == "allocates" || mark == "heap-free") {
					marks[fn.Name.Name] = mark
				}
			}
		}
	}
	return marks
}
