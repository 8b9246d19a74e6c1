package eager

import (
	"math/bits"

	"repro/internal/pool"
)

// statusTable is the JB router's dispatch record, key → core group: a
// flat open-addressing table over two pooled uint32 arrays. The per-tuple
// write is the overhead the paper names (Section 5.3.3); the arrays are
// the only state, so a window leaves nothing for the collector.
type statusTable struct {
	keys []uint32
	vals []uint32 // group+1; 0 marks an empty slot
	mask uint32
	n    int // distinct keys recorded
}

// statusSlots is the smallest power of two that holds maxKeys distinct
// keys at a load factor of at most one half.
func statusSlots(maxKeys int) int {
	return 1 << bits.Len(uint(max(2*maxKeys, 1)-1))
}

// newStatusTable takes a table for up to maxKeys distinct keys from p. It
// is sized once (statusSlots), so set never grows or fails to find a slot.
func newStatusTable(maxKeys int, p *pool.Pool) statusTable {
	size := statusSlots(maxKeys)
	t := statusTable{keys: p.U32(size)[:size], vals: p.U32(size)[:size], mask: uint32(size - 1)}
	clear(t.vals)
	return t
}

// set records that key, whose hash is h, was dispatched to group g.
func (t *statusTable) set(key int32, h uint32, g int32) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		switch {
		case t.vals[i] == 0:
			t.keys[i], t.vals[i] = uint32(key), uint32(g)+1
			t.n++
			return
		case t.keys[i] == uint32(key):
			t.vals[i] = uint32(g) + 1
			return
		}
	}
}

// release returns the table's arrays to p.
func (t *statusTable) release(p *pool.Pool) {
	p.PutU32(t.keys)
	p.PutU32(t.vals)
	*t = statusTable{}
}
