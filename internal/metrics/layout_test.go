package metrics

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

// TestLayout pins the padded layouts of the package, one row per `_` pad;
// removing any pad fails its row.
//   - ThreadMetrics and Ring, the per-worker records every phase change
//     writes: their stride is a multiple of 128 bytes — the two cache lines
//     the adjacent-line prefetcher pairs — so neighbouring workers'
//     elements of Collector.threads, and rings (each in its own 128-byte
//     allocation), never share a line.
//   - Collector: the sampler's memMu sits on no line of the memCur and
//     memPeak gauges the workers hammer.
func TestLayout(t *testing.T) {
	for name, size := range map[string]uintptr{
		"ThreadMetrics": unsafe.Sizeof(ThreadMetrics{}),
		"Ring":          unsafe.Sizeof(Ring{}),
	} {
		if size%128 != 0 {
			t.Errorf("%s is %d bytes, not a multiple of 128: re-size its pad", name, size)
		}
	}
	var c Collector
	mu, muSize := unsafe.Offsetof(c.memMu), unsafe.Sizeof(c.memMu)
	for name, gauge := range map[string][2]uintptr{
		"memCur":  {unsafe.Offsetof(c.memCur), unsafe.Sizeof(c.memCur)},
		"memPeak": {unsafe.Offsetof(c.memPeak), unsafe.Sizeof(c.memPeak)},
	} {
		if sharesLine(mu, muSize, gauge[0], gauge[1]) {
			t.Errorf("Collector.memMu (offset %d) shares a cache line with %s (offset %d): re-size the pad before memMu", mu, name, gauge[0])
		}
	}
}
