package eager

import "math/bits"

// statusTable is the JB router's dispatch record, key → core group: a
// flat open-addressing table whose slot i is the pair cells[2i] (the key)
// and cells[2i+1] (group+1; 0 marks an empty slot) of one pooled uint32
// array, so a write touches one cache line. The per-tuple write is the
// overhead the paper names (Section 5.3.3); the array is the only state,
// so a window leaves nothing for the collector.
type statusTable struct {
	cells []uint32
	mask  uint32 // len(cells)-1: masks a cell index, key or group alike
	n     int    // distinct keys recorded
	tick  uint32 // keeps stage one's line loads observable
}

// statusSlots is the smallest power of two that holds maxKeys distinct
// keys at a load factor of at most one half.
func statusSlots(maxKeys int) int {
	return 1 << bits.Len(uint(max(2*maxKeys, 1)-1))
}

// newStatusTable builds a table for up to maxKeys distinct keys on cells
// taken with take. It is sized once (statusSlots), so a write never grows
// the table or fails to find a slot.
func newStatusTable(maxKeys int, take func(n int) []uint32) statusTable {
	n := 2 * statusSlots(maxKeys)
	t := statusTable{cells: take(n)[:n], mask: uint32(n - 1)}
	clear(t.cells)
	return t
}

// statusBlock is how many status writes are staged before they are made:
// enough lines in flight at once to cover a miss's latency, few enough that
// a block's lines are still in L1 when it is written. 16 to 64 time alike
// on a 2^21-key window (BenchmarkKernelJBRoute); 1, no staging, is 2x.
const statusBlock = 32

// statusBlockMask masks a block-local index into the staged writes, which
// makes the masked index bounds-check free (LINTING.md §BCE).
const statusBlockMask = statusBlock - 1

// statusStage is a block of status writes a worker has routed but not yet
// made: the keys and the hashes routing computed for them. It lives in the
// worker's distribution, on the worker's stack.
type statusStage struct {
	keys   [statusBlock]int32
	hashes [statusBlock]uint32
	n      int
}

// push queues the write of key, whose hash is h, and reports whether the
// block is now full and must be flushed.
func (st *statusStage) push(key int32, h uint32) bool {
	st.keys[st.n&statusBlockMask], st.hashes[st.n&statusBlockMask] = key, h
	st.n++
	return st.n == statusBlock
}

// flush records that every key staged in st was dispatched to group g and
// empties st, in two passes over the block the way the hash kernels'
// buildStage.stage and Table.commit are: the first loads every key's home
// slot, so the lines are in flight together, the second writes them.
func (t *statusTable) flush(st *statusStage, g int32) {
	n := st.n
	st.n = 0
	t.tick |= t.load(st.hashes[:n])
	t.write(st.keys[:n], st.hashes[:n], uint32(g)+1)
}

// load is stage one of a flush: it reads the home slot of every hash,
// which starts each slot's line on its way. The returned accumulator keeps
// the reads observable.
//
//iawj:hotpath
func (t *statusTable) load(hashes []uint32) uint32 {
	cells, m := t.cells, t.mask
	_ = cells[m] // hoisted proof: every masked index is in range
	var tick uint32
	for _, h := range hashes {
		tick |= cells[(h<<1)&m]
	}
	return tick
}

// write is stage two of a flush: it records val for each key (aligned with
// hashes) in input order, in a free slot or over its key's, probing
// linearly from the slot stage one loaded.
//
//iawj:hotpath
func (t *statusTable) write(keys []int32, hashes []uint32, val uint32) {
	cells, m := t.cells, t.mask
	_ = cells[m] // hoisted proof: every masked index is in range
	for j := 0; j < len(keys) && j < len(hashes); j++ {
		key := uint32(keys[j])
		for i := (hashes[j] << 1) & m; ; i = (i + 2) & m {
			if cells[(i+1)&m] == 0 {
				cells[i&m], cells[(i+1)&m] = key, val
				t.n++
				break
			}
			if cells[i&m] == key {
				cells[(i+1)&m] = val
				break
			}
		}
	}
}
