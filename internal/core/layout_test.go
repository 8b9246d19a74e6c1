package core

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

// TestLayout pins the outbox's `_` pad: mu, which the workers take to
// count and to recycle batches, sits on no line of the token the
// deliverer holds while the consumer runs.
func TestLayout(t *testing.T) {
	var o Outbox
	if sharesLine(unsafe.Offsetof(o.mu), unsafe.Sizeof(o.mu), unsafe.Offsetof(o.token), unsafe.Sizeof(o.token)) {
		t.Errorf("Outbox.mu (offset %d) shares a cache line with token (offset %d): re-size the pad before mu", unsafe.Offsetof(o.mu), unsafe.Offsetof(o.token))
	}
}
