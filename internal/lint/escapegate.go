package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// escapeGate turns the runtime AllocsPerRun==0 guarantee of the
// //iawj:hotpath kernels into a static one: it reads the real compiler's
// escape analysis (`go build -gcflags=-m=2`), parses the heap-allocation
// diagnostics, and fails when any annotated hotpath function allocates
// anywhere in its span — every hotpath, not just the ones with an
// allocation test. A per-tuple heap allocation turns a memory-bound
// kernel GC-bound and skews every reproduced figure.
//
// Scope is the whole function, loops and straight-line code alike:
// `store.place`, `seekMatch` and `runEnd` have no loop yet run once per
// tuple. The compiler owns "this escapes" — closures, non-constant makes,
// boxing, fmt's arguments, new — and reports none that stay on the
// stack; hotpathalloc keeps only what escape analysis cannot see.
//
// Unlike the AST rules this one shells out to the go tool (diagnostics
// replay from the build cache, so repeat runs are cheap) and anchors
// diagnostics to hotpath function spans parsed from the loaded program.
// `//lint:allow escapegate <reason>` on or above the allocation line, or
// in the function's doc comment for the whole span, suppresses a finding,
// as does the path allowlist.
var escapeGate = Rule{
	Name:     "escapegate",
	Doc:      "no heap allocation anywhere in a //iawj:hotpath function, loops or straight-line code, proven by go build -gcflags=-m=2",
	Contract: "The compiler's own escape analysis (-m=2) proves no //iawj:hotpath function heap-allocates anywhere in its span, loops and straight-line code alike: a loop-free hotpath runs once per tuple or key. Fix by hoisting the allocation out of the span (annotate the per-tuple loop, not the per-run driver around it) or taking it from the pool; function-scope //lint:allow escapegate in the doc comment sanctions a span whose allocations are by design.",
	Check: func(prog *Program) []Finding {
		return matchEscapes(prog.Root, parseEscapeOutput(prog.buildDiag()), prog.hotSpans())
	},
}

// diagLine is one positioned line of compiler output.
type diagLine struct {
	File string // as printed (relative to the build directory)
	Line int
	Col  int
	Msg  string
}

// diagRe matches compiler diagnostic lines: file.go:line:col: message.
var diagRe = regexp.MustCompile(`^(.*\.go):(\d+):(\d+): (.*)$`)

// diagLines splits the diagnostics build's output into the positioned
// lines a gate understands: keep says whether a message is one of them
// and returns the form to store. The compiler emits the same diagnostic
// once per build unit that compiles the package (binary, test import,
// ...), so duplicates are collapsed.
func diagLines(out string, keep func(msg string) (string, bool)) []diagLine {
	var diags []diagLine
	seen := map[diagLine]bool{}
	for _, line := range strings.Split(out, "\n") {
		m := diagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg, ok := keep(m[4])
		ln, err1 := strconv.Atoi(m[2])
		col, err2 := strconv.Atoi(m[3])
		if !ok || err1 != nil || err2 != nil {
			continue
		}
		d := diagLine{File: m[1], Line: ln, Col: col, Msg: msg}
		if !seen[d] {
			seen[d] = true
			diags = append(diags, d)
		}
	}
	return diags
}

// allocRe matches the messages that report an actual heap allocation.
// "leaking param", "can inline", flow-explanation lines and friends do
// not allocate and are excluded.
var allocRe = regexp.MustCompile(`^(.*escapes to heap:?|moved to heap: .*)$`)

// parseEscapeOutput extracts heap-allocation diagnostics from the output
// of `go build -gcflags=-m=2`.
func parseEscapeOutput(out string) []diagLine {
	return diagLines(out, func(msg string) (string, bool) {
		return strings.TrimSuffix(msg, ":"), !strings.HasPrefix(msg, " ") && allocRe.MatchString(msg)
	})
}

// hotSpan is the extent of one //iawj:hotpath function, plus the line
// ranges of every for/range body inside it (loopBodies), which bcegate
// scopes to.
type hotSpan struct {
	Name      string
	File      string // absolute path
	StartLine int
	EndLine   int
	Loops     [][2]int // inclusive [start,end] line ranges of loop bodies
	// Allows lists rules granted a function-scope escape hatch by a
	// `//lint:allow <rule> <reason>` line in the function's doc comment.
	// Line-level allows suit AST rules, but a gate diagnostic can move
	// with every compiler release; the function is the stable contract
	// unit, so gate rules (escapegate, bcegate) honor doc-comment allows
	// across the whole span.
	Allows []string
}

// finding reports a compiler diagnostic inside the span. The position is
// fabricated: it originates in the compiler's output, not in the loader's
// FileSet.
func (s *hotSpan) finding(line, col int, format string, args ...any) Finding {
	return Finding{Pos: token.Position{Filename: s.File, Line: line, Column: col}, Msg: fmt.Sprintf(format, args...)}
}

// spanAt returns the span holding file:line, or nil when none does or
// when that span's doc comment allows the rule (the function-scope
// contract covers the whole span).
func spanAt(spans []hotSpan, rule, file string, line int) *hotSpan {
	for i := range spans {
		s := &spans[i]
		if s.File == file && line >= s.StartLine && line <= s.EndLine {
			if slices.Contains(s.Allows, rule) {
				return nil
			}
			return s
		}
	}
	return nil
}

// inLoop reports whether the line sits inside one of the span's loop
// bodies.
func (s *hotSpan) inLoop(line int) bool {
	return slices.ContainsFunc(s.Loops, func(r [2]int) bool { return line >= r[0] && line <= r[1] })
}

// hotSpans collects (once) every annotated function's span in the program.
func (prog *Program) hotSpans() []hotSpan {
	if prog.spans != nil {
		return prog.spans
	}
	prog.spans = []hotSpan{}
	prog.funcDecls(func(p *Package, fn *ast.FuncDecl) {
		if !isHotPath(fn) {
			return
		}
		start := p.Fset.Position(fn.Pos())
		s := hotSpan{Name: qualifiedName(fn), File: start.Filename, StartLine: start.Line, EndLine: p.Fset.Position(fn.End()).Line}
		for _, body := range loopBodies(fn.Body) {
			s.Loops = append(s.Loops, [2]int{p.Fset.Position(body.Pos()).Line, p.Fset.Position(body.End()).Line})
		}
		if fn.Doc != nil {
			for _, c := range fn.Doc.List {
				if rule, reasoned, ok := parseAllow(c); ok && reasoned {
					s.Allows = append(s.Allows, rule)
				}
			}
		}
		prog.spans = append(prog.spans, s)
	})
	return prog.spans
}

// matchEscapes anchors allocation diagnostics (paths relative to root) to
// hotpath spans, returning one finding per allocation anywhere inside a
// span.
func matchEscapes(root string, diags []diagLine, spans []hotSpan) []Finding {
	var out []Finding
	for _, d := range diags {
		if s := spanAt(spans, "escapegate", absAgainst(root, d.File), d.Line); s != nil {
			out = append(out, s.finding(d.Line, d.Col, "%s is //iawj:hotpath but heap-allocates: %s (escape analysis; hoist the allocation out of the span or take it from the pool)", s.Name, d.Msg))
		}
	}
	return out
}

// absAgainst resolves a compiler-printed path (relative to the build
// directory) against the module root.
func absAgainst(root, file string) string {
	if filepath.IsAbs(file) {
		return file
	}
	return filepath.Join(root, file)
}
