package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// inlineGate makes inlinability a checked-in contract instead of a silent
// compiler mood. PR 8 lost the fused partition+build kernel to an inliner
// refusal (InsertHashed, cost 119 over the 80 budget) and only noticed by
// benchmarking; the fix moved the scatter loop, but nothing guarded the
// helpers that must keep inlining into the hot loops (Hash, the pool/pref
// accessors). The gate parses the inliner's own verdicts from the shared
// -m=2 diagnostics run and fails when a function annotated //iawj:inline
// is refused — reporting the cost and the budget delta, so a review that
// grows a helper sees "over by 12", not a benchmark regression three PRs
// later.
//
// The finding anchors at the function declaration, so a line-level
// `//lint:allow inlinegate <reason>` as the final doc-comment line is the
// escape hatch; the path allowlist applies as usual.
var inlineGate = Rule{
	Name:     "inlinegate",
	Doc:      "//iawj:inline functions stay within the inliner budget, proven by go build -gcflags=-m=2",
	Contract: "Functions annotated //iawj:inline are contracts: the inliner must accept them (budget 80). The gate parses -m=2 verdicts and fails on refusal, reporting cost and the over-by delta so budget creep is visible in the diff that caused it. Fix by trimming the body or outlining the cold path behind //go:noinline; or drop the annotation if inlining no longer matters there.",
	Sev:      Error,
	Check: func(prog *Program) []Finding {
		return matchInline(prog.Root, parseInlineOutput(prog.buildDiag()), inlineSpans(prog))
	},
}

// inlineMarker annotates a function that must stay inlinable.
const inlineMarker = "//iawj:inline"

// inlineDiag is one inliner verdict from the compiler.
type inlineDiag struct {
	File      string // as printed (relative to the build directory)
	Line      int
	Col       int
	Name      string // as printed, e.g. (*Table).InsertHashed
	CanInline bool
	Cost      int    // parsed cost; 0 when the verdict carries none
	Budget    int    // parsed budget on cost-exceeded refusals; 0 otherwise
	Reason    string // refusal reason; empty on can-inline verdicts
}

var (
	canInlineRe    = regexp.MustCompile(`^can inline (\S+)(?: with cost (\d+))?(?: as:.*)?$`)
	cannotInlineRe = regexp.MustCompile(`^cannot inline (\S+): (.*)$`)
	costBudgetRe   = regexp.MustCompile(`cost (\d+) exceeds budget (\d+)`)
)

// parseInlineOutput extracts inliner verdicts from the combined output of
// the diagnostics build. The trailing colon of "cannot inline f:" reasons
// like "function too complex: cost 119 exceeds budget 80" is parsed into
// Cost/Budget.
func parseInlineOutput(out string) []inlineDiag {
	var diags []inlineDiag
	for _, l := range diagLines(out, func(msg string) (string, bool) {
		return msg, strings.HasPrefix(msg, "can inline ") || strings.HasPrefix(msg, "cannot inline ")
	}) {
		d := inlineDiag{File: l.File, Line: l.Line, Col: l.Col}
		if m := canInlineRe.FindStringSubmatch(l.Msg); m != nil {
			d.Name, d.CanInline = m[1], true
			d.Cost, _ = strconv.Atoi(m[2])
		} else if m := cannotInlineRe.FindStringSubmatch(l.Msg); m != nil {
			d.Name, d.Reason = m[1], m[2]
			if cb := costBudgetRe.FindStringSubmatch(m[2]); cb != nil {
				d.Cost, _ = strconv.Atoi(cb[1])
				d.Budget, _ = strconv.Atoi(cb[2])
			}
		} else {
			continue
		}
		diags = append(diags, d)
	}
	return diags
}

// inlineSpan is one //iawj:inline-annotated function declaration.
type inlineSpan struct {
	Name string // receiver-qualified, e.g. Table.InsertHashed
	File string // absolute path
	Line int    // declaration line (where the inliner anchors its verdict)
}

// inlineSpans collects every annotated function declaration in the program.
func inlineSpans(prog *Program) []inlineSpan {
	var spans []inlineSpan
	prog.funcDecls(func(p *Package, _ map[string]string, fn *ast.FuncDecl) {
		if hasMarker(fn, inlineMarker) {
			pos := p.Fset.Position(fn.Pos())
			spans = append(spans, inlineSpan{Name: qualifiedName(fn), File: pos.Filename, Line: pos.Line})
		}
	})
	return spans
}

// normalizeInlineName strips the compiler's pointer-receiver syntax:
// (*Table).InsertHashed -> Table.InsertHashed.
func normalizeInlineName(name string) string {
	name = strings.ReplaceAll(name, "(*", "")
	return strings.ReplaceAll(name, ")", "")
}

// matchInline checks every annotated span against the inliner verdicts:
// a refusal, or a missing verdict, is a finding. Verdicts are matched by
// file and declaration line, with the normalized name as a tie-break when
// one line somehow carries several verdicts.
func matchInline(root string, diags []inlineDiag, spans []inlineSpan) []Finding {
	type key struct {
		file string
		line int
	}
	byPos := map[key][]inlineDiag{}
	for _, d := range diags {
		k := key{absAgainst(root, d.File), d.Line}
		byPos[k] = append(byPos[k], d)
	}
	var out []Finding
	for _, s := range spans {
		candidates := byPos[key{s.File, s.Line}]
		flag := func(format string, args ...any) {
			out = append(out, Finding{Pos: token.Position{Filename: s.File, Line: s.Line, Column: 1}, Msg: fmt.Sprintf(format, args...)})
		}
		var verdict *inlineDiag
		for i := range candidates {
			if len(candidates) == 1 || normalizeInlineName(candidates[i].Name) == s.Name {
				verdict = &candidates[i]
				break
			}
		}
		switch {
		case verdict == nil:
			flag("%s is //iawj:inline but the build diagnostics carry no inliner verdict for it; the contract cannot be verified (is the package built by ./...?)", s.Name)
		case !verdict.CanInline && verdict.Budget > 0:
			flag("%s is //iawj:inline but the inliner refuses it: cost %d exceeds budget %d (over by %d); trim the body, outline the cold path with //go:noinline, or drop the contract",
				s.Name, verdict.Cost, verdict.Budget, verdict.Cost-verdict.Budget)
		case !verdict.CanInline:
			flag("%s is //iawj:inline but the inliner refuses it: %s", s.Name, verdict.Reason)
		}
	}
	return out
}
