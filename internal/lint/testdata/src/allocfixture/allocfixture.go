// Package allocfixture is the allocation construct table: one
// //iawj:hotpath function per construct, its construct line marked
// `// allocates` or `// heap-free`. allocfixture_test.go confirms every
// mark with testing.AllocsPerRun; internal/lint's
// TestAllocationConstructTable builds the package with the gate flags and
// requires every allocating construct to be reported by exactly one of
// escapegate (what escapes, from the compiler) and hotpathalloc (what
// escape analysis cannot see). It lives under testdata so `go build ./...`
// never sees it; both tests name it by explicit path.
package allocfixture

import "fmt"

// Package-level sinks keep escaping values reachable.
var (
	sinkStr  string
	sinkFn   func() int
	sinkAny  any
	sinkArr  *[8]int
	sinkInts []int
)

//iawj:hotpath
func hotSprintf(keys []int) {
	for _, k := range keys {
		sinkStr = fmt.Sprintf("key=%d", k) // allocates
	}
}

//iawj:hotpath
func hotEscapingClosure(keys []int) {
	for _, k := range keys {
		sinkFn = func() int { return k } // allocates
	}
}

//iawj:hotpath
func hotLocalClosure(keys []int) int {
	n := 0
	for _, k := range keys {
		n += func() int { return 2 * k }() // heap-free
	}
	return n
}

//iawj:hotpath
func hotMakeSized(keys []int) int {
	n := 0
	for _, k := range keys {
		buf := make([]int, 0, len(keys)) // allocates
		buf = append(buf, k)
		n += len(buf)
	}
	return n
}

//iawj:hotpath
func hotMakeConst(keys []int) int {
	n := 0
	for _, k := range keys {
		buf := make([]int, 0, 8) // heap-free
		buf = append(buf, k)
		n += len(buf)
	}
	return n
}

// keep leaks its argument, so boxing for it escapes.
func keep(v any) { sinkAny = v }

// look reads its argument only, so boxing for it stays on the stack.
func look(v any) int {
	if _, ok := v.(int); ok {
		return 1
	}
	return 0
}

//iawj:hotpath
func hotBoxEscaping(keys []int) {
	for _, k := range keys {
		keep(k) // allocates
	}
}

//iawj:hotpath
func hotBoxLocal(keys []int) int {
	n := 0
	for _, k := range keys {
		n += look(k) // heap-free
	}
	return n
}

//iawj:hotpath
func hotNew(keys []int) {
	for _, k := range keys {
		a := new([8]int) // allocates
		a[0] = k
		sinkArr = a
	}
}

// hotNewStraight has no loop: like store.place or seekMatch, it runs once
// per tuple, and only a whole-span escapegate sees its allocation.
//
//iawj:hotpath
func hotNewStraight(k int) {
	a := new([8]int) // allocates
	a[0] = k
	sinkArr = a
}

//iawj:hotpath
func hotAppendCaptured(keys []int) {
	sinkInts = nil
	for _, k := range keys {
		sinkInts = append(sinkInts, k) // allocates
	}
}

//iawj:hotpath
func hotMapSized(keys []int) int {
	n := 0
	for i, k := range keys {
		m := make(map[int]int, len(keys)) // allocates
		m[k] = i
		n += len(m)
	}
	return n
}

//iawj:hotpath
func hotMapLiteral(keys []int) int {
	n := 0
	for _, k := range keys {
		m := map[int]bool{k: true} // heap-free
		if m[k] {
			n++
		}
	}
	return n
}

//iawj:hotpath
func hotConcatLong(names []string) int {
	n := 0
	for _, name := range names {
		s := name + " joined with a literal that outgrows the stack buffer" // allocates
		n += len(s)
	}
	return n
}

//iawj:hotpath
func hotConcatAssign(names []string) int {
	out := ""
	for _, name := range names {
		out += name // allocates
	}
	return len(out)
}

//iawj:hotpath
func hotConcatShort(names []string) int {
	n := 0
	for _, name := range names {
		s := name + "!" // heap-free
		n += len(s)
	}
	return n
}

//iawj:hotpath
func hotCallFuncValue(keys []int, emit func(int)) {
	for _, k := range keys {
		emit(k) // heap-free
	}
}

type emitter struct{ fn func(int) }

//iawj:hotpath
func hotCallFuncField(keys []int, e emitter) {
	for _, k := range keys {
		e.fn(k) // heap-free
	}
}
