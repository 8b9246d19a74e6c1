package lint

import "go/ast"

// traceRing verifies that span recording inside `//iawj:hotpath` functions
// goes through the preallocated per-worker ring API of internal/trace:
// the nil-safe *trace.Worker methods (Begin/End/AddTuples/Record/NowNs),
// which are a struct store plus one atomic publish. Everything else the
// package exports — recorder construction, StartRun, Snapshot, the
// exporters — allocates or takes the recorder mutex, so calling it from a
// probe/build inner loop reintroduces exactly the overhead the ring
// design exists to avoid.
//
// Flagged inside annotated functions (only in files importing
// repro/internal/trace):
//
//   - any package-level trace.* call (NewRecorder, WriteChrome, ...);
//   - method calls named StartRun, Snapshot, Algorithms, AlgName, or
//     Workers — the locking Recorder surface.
var traceRing = Rule{
	Name:     "tracering",
	Doc:      "span recording in //iawj:hotpath functions must use the preallocated *trace.Worker ring API",
	Contract: "Trace emission in hot code goes through the fixed-size ring, never through a growing slice or unbuffered channel; the ring's overwrite semantics are the sanctioned loss model.",
	Sev:      Error,
	Check:    perPackage(checkTraceRing),
}

// tracePkgPath is the import path of the span recorder package.
const tracePkgPath = "repro/internal/trace"

// recorderMethods is the locking surface of the trace package, off-limits
// on hot paths. The Worker ring methods (Begin, End, AddTuples, Record,
// NowNs) are the sanctioned API and are not listed. Besides the Recorder
// methods this covers the Sampler read surface (SampleNow, Latest,
// Samples) — every one takes the sampler mutex and SampleNow also reads
// runtime/metrics; the sampling goroutine and export paths are the only
// legitimate callers.
var recorderMethods = map[string]bool{
	"StartRun": true, "Snapshot": true, "Algorithms": true,
	"AlgName": true, "Workers": true,
	"SampleNow": true, "Latest": true, "Samples": true,
}

func checkTraceRing(p *Package) []Finding {
	var out []Finding
	p.hotFuncs(func(imports map[string]string, fn *ast.FuncDecl) {
		usesTrace := false
		for _, path := range imports {
			usesTrace = usesTrace || path == tracePkgPath
		}
		if !usesTrace {
			return
		}
		// Nested closures execute on the same hot path and are scanned too.
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgCall(call, imports, tracePkgPath); ok {
				out = append(out, p.finding(call.Pos(), "trace.%s in a //iawj:hotpath function; record spans through a preallocated *trace.Worker handle", name))
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && recorderMethods[sel.Sel.Name] {
				// The receiver is a local expression; with the trace package
				// imported in this file, a locking Recorder method name on a
				// hot path is flagged regardless of receiver type (syntactic,
				// conservative toward the invariant).
				out = append(out, p.finding(call.Pos(), "%s call in a //iawj:hotpath function; use the *trace.Worker ring API (Begin/End/AddTuples/Record)", sel.Sel.Name))
			}
			return true
		})
	})
	return out
}
