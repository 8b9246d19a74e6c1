package fixture

import "fmt"

var capturedSink []int

//iawj:hotpath
func hotProbeLoop(keys []int) int {
	n := 0
	local := make([]int, 0, len(keys))
	for _, k := range keys {
		local = append(local, k)               // ok: local buffer
		capturedSink = append(capturedSink, k) // want hotpathalloc
		_ = fmt.Sprintf("key=%d", k)           // ok: escapegate's (its arguments escape)
		seen := map[int]bool{k: true}          // want hotpathalloc
		_ = make(map[int]int, len(keys))       // want hotpathalloc
		if seen[k] {
			n += k
		}
	}
	return n + len(local)
}

//iawj:hotpath
func hotWithClosure(keys []int, emit func(int)) {
	for _, k := range keys {
		probe := func(x int) { // ok: escapegate's, if it escapes
			emit(x) // want hotpathalloc
		}
		probe(k) // want hotpathalloc
	}
}

//iawj:hotpath
func hotBatchedLoop(keys []int, emit func(int)) {
	scratch := make([]int, 0, len(keys))
	flush := func(xs []int) { // ok: constructed once
		for _, x := range xs {
			emit(x) // want hotpathalloc
		}
	}
	for _, k := range keys {
		perIter := make([]int, 0, 8) // ok: escapegate's, if it escapes
		perIter = append(perIter, k)
		scratch = append(scratch, perIter...)
	}
	flush(scratch) // ok: outside any loop, once per call
}

type emitter struct{ fn func(int) }

func namedSink(x int) { _ = x }

//iawj:hotpath
func hotIndirectCalls(keys []int, emit func(int), e emitter) {
	for _, k := range keys {
		emit(k)       // want hotpathalloc
		e.fn(k)       // want hotpathalloc
		namedSink(k)  // ok: direct call, the inliner sees through it
		_ = len(keys) // ok: builtin
	}
	emit(len(keys)) // ok: outside the loop, once per run
}

//iawj:hotpath
func hotAllowedCallback(keys []int, emit func(int)) {
	for _, k := range keys {
		emit(k) //lint:allow hotpathalloc a fixture demonstrating a sanctioned per-tuple callback
	}
}

func takeAny(v any) { _ = v }

//iawj:hotpath
func hotStrings(keys []int, names []string) string {
	out := ""
	const prefix = "k" + "=" // ok: constant concatenation folds at compile time
	for i, name := range names {
		out += name      // want hotpathalloc
		_ = name + "!"   // want hotpathalloc
		_ = prefix + "x" // ok: still constant
		takeAny(keys[i]) // ok: escapegate's, if the argument escapes
	}
	return out + "." // want hotpathalloc
}

func coldPath(keys []int) string {
	// Not annotated: formatting and maps are fine here.
	seen := map[int]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	return fmt.Sprintf("%d distinct", len(seen))
}

//iawj:hotpath
func hotClosureInExpr(keys []int) {
	for _, k := range keys {
		export := func() int {
			return len(keys)
		}
		_ = export() + k // want hotpathalloc
	}
}
