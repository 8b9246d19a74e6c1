package hashtable

import (
	"testing"
	"unsafe"
)

// sharesLine reports whether two fields, at their offsets and sizes, touch
// a common 64-byte cache line of their struct: a field covers lines
// off/64 … (off+size-1)/64.
func sharesLine(offA, sizeA, offB, sizeB uintptr) bool {
	return offA/64 <= (offB+sizeB-1)/64 && offB/64 <= (offA+sizeA-1)/64
}

// TestLayout pins the shared table's layout: Shared's `_` pad keeps
// storeMu off the line of the size counter every batch bumps, and
// sharedBucket stays the deliberately compact 88 bytes — adjacent buckets
// share lines by design (see its doc), so padding it is a decision, not a
// fix.
func TestLayout(t *testing.T) {
	var s Shared
	if sharesLine(unsafe.Offsetof(s.storeMu), unsafe.Sizeof(s.storeMu), unsafe.Offsetof(s.size), unsafe.Sizeof(s.size)) {
		t.Errorf("Shared.storeMu (offset %d) shares a cache line with size (offset %d): re-size the pad before storeMu", unsafe.Offsetof(s.storeMu), unsafe.Offsetof(s.size))
	}
	if n := unsafe.Sizeof(sharedBucket{}); n != 88 {
		t.Errorf("sharedBucket is %d bytes, want the compact 88", n)
	}
}
