// Package escfixture is the escapegate positive control: a hotpath
// function that heap-allocates per loop iteration, and one that allocates
// once in straight-line code. It lives under testdata so `go build ./...`
// never sees it; the test builds it by explicit path with -gcflags=-m=2
// and asserts the gate fires on both.
package escfixture

// Sink keeps escaping values reachable so the compiler cannot elide them.
var Sink []*[8]int

//iawj:hotpath
func HotLeaky(keys []int) {
	for range keys {
		buf := new([8]int) // escapes: stored through Sink
		Sink = append(Sink, buf)
	}
}

//iawj:hotpath
func HotSetupOnly(keys []int) int {
	scratch := new([8]int) // outside the loop, still inside the span: reported
	Sink = append(Sink, scratch)
	n := 0
	for i, k := range keys {
		scratch[i%8] = k
		n += k
	}
	return n
}
