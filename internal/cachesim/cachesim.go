// Package cachesim is a software model of a multicore cache hierarchy.
//
// The paper profiles hardware counters (Intel PCM, perf) to explain why the
// eager algorithms incur more cache misses during partitioning and probing
// (Figure 8, Figure 19a, Table 5). Those counters need silicon; this
// package substitutes a set-associative, LRU, inclusive three-level cache
// simulator fed by the *actual logical access sequences* of the
// instrumented join code paths. Absolute miss counts differ from hardware,
// but the relative effects the paper reports — shared-hash-table conflicts,
// long bucket-chain walks under high key duplication, interleaved-access
// thrashing of the eager algorithms, and the JB scheme's status-maintenance
// overhead — emerge from the same access patterns.
package cachesim

import "fmt"

// Tracer receives the logical memory accesses of an instrumented code
// path. A nil Tracer disables instrumentation at (almost) zero cost; the
// hot paths check for nil before calling.
type Tracer interface {
	// Access records a read or write of the cache line containing addr.
	Access(addr uint64)
	// Op records n executed "instructions" (a coarse operation count used
	// for the Table 5 instruction column and the Figure 19a model).
	Op(n uint64)
}

// LevelConfig sizes one cache level.
type LevelConfig struct {
	SizeBytes int
	Ways      int
	LineSize  int
}

// Config describes the simulated hierarchy. DefaultConfig mirrors the
// paper's Xeon Gold 6126 shape (32 KiB L1D, 1 MiB L2, 19 MiB shared L3).
type Config struct {
	L1, L2, L3 LevelConfig
}

// DefaultConfig returns the evaluation platform's hierarchy.
func DefaultConfig() Config {
	return Config{
		L1: LevelConfig{SizeBytes: 32 << 10, Ways: 8, LineSize: 64},
		L2: LevelConfig{SizeBytes: 1 << 20, Ways: 16, LineSize: 64},
		L3: LevelConfig{SizeBytes: 19 << 20, Ways: 11, LineSize: 64},
	}
}

// ScaledConfig shrinks the hierarchy for profile runs over scaled-down
// workloads. The cache-behaviour findings of the paper are driven by
// ratios — hash-table footprint vs. L3 size, partition fanout vs. L1/L2
// lines — so a workload scaled by 1/s meets an equally scaled hierarchy
// to reproduce the same capacity effects without paper-sized inputs.
// frac is the shrink factor (e.g. 1.0/64); level sizes are floored so the
// hierarchy stays well-formed.
func ScaledConfig(frac float64) Config {
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	shrink := func(bytes int, floor int) int {
		v := int(float64(bytes) * frac)
		if v < floor {
			v = floor
		}
		return v
	}
	return Config{
		L1: LevelConfig{SizeBytes: shrink(32<<10, 2<<10), Ways: 8, LineSize: 64},
		L2: LevelConfig{SizeBytes: shrink(1<<20, 16<<10), Ways: 16, LineSize: 64},
		L3: LevelConfig{SizeBytes: shrink(19<<20, 128<<10), Ways: 11, LineSize: 64},
	}
}

// level is one set-associative cache with LRU replacement. Lines store
// tags; an age counter provides cheap LRU.
type level struct {
	sets     int
	ways     int
	lineBits uint
	tags     []uint64
	ages     []uint64
	tick     uint64

	Hits, Misses uint64
}

func newLevel(c LevelConfig) *level {
	if c.LineSize == 0 {
		c.LineSize = 64
	}
	lines := c.SizeBytes / c.LineSize
	if c.Ways <= 0 {
		c.Ways = 8
	}
	sets := lines / c.Ways
	if sets < 1 {
		sets = 1
	}
	// round down to a power of two for cheap indexing
	for sets&(sets-1) != 0 {
		sets &^= sets & (-sets) // clear lowest set bit... see note below
	}
	if sets < 1 {
		sets = 1
	}
	lb := uint(0)
	for ls := c.LineSize; ls > 1; ls >>= 1 {
		lb++
	}
	l := &level{
		sets:     sets,
		ways:     c.Ways,
		lineBits: lb,
		tags:     make([]uint64, sets*c.Ways),
		ages:     make([]uint64, sets*c.Ways),
	}
	for i := range l.tags {
		l.tags[i] = ^uint64(0)
	}
	return l
}

// access returns true on hit. On miss the LRU way of the set is replaced.
func (l *level) access(addr uint64) bool {
	line := addr >> l.lineBits
	set := int(line) & (l.sets - 1)
	base := set * l.ways
	l.tick++
	var lruIdx int
	lruAge := ^uint64(0)
	for w := 0; w < l.ways; w++ {
		i := base + w
		if l.tags[i] == line {
			l.ages[i] = l.tick
			l.Hits++
			return true
		}
		if l.ages[i] < lruAge {
			lruAge = l.ages[i]
			lruIdx = i
		}
	}
	l.Misses++
	l.tags[lruIdx] = line
	l.ages[lruIdx] = l.tick
	return false
}

// Counters is a snapshot of per-level miss statistics plus the operation
// count, the software analogue of the paper's Table 5 rows.
type Counters struct {
	Accesses uint64
	L1Miss   uint64
	L2Miss   uint64
	L3Miss   uint64
	TLBMiss  uint64
	Ops      uint64
}

// Sub returns c - o, for per-phase deltas.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Accesses: c.Accesses - o.Accesses,
		L1Miss:   c.L1Miss - o.L1Miss,
		L2Miss:   c.L2Miss - o.L2Miss,
		L3Miss:   c.L3Miss - o.L3Miss,
		TLBMiss:  c.TLBMiss - o.TLBMiss,
		Ops:      c.Ops - o.Ops,
	}
}

// PerTuple scales the counters by 1/n for Table 5-style reporting.
func (c Counters) PerTuple(n int) PerTupleCounters {
	if n == 0 {
		n = 1
	}
	d := float64(n)
	return PerTupleCounters{
		L1Miss:  float64(c.L1Miss) / d,
		L2Miss:  float64(c.L2Miss) / d,
		L3Miss:  float64(c.L3Miss) / d,
		TLBMiss: float64(c.TLBMiss) / d,
		Ops:     float64(c.Ops) / d,
	}
}

// PerTupleCounters is Counters normalized per input tuple.
type PerTupleCounters struct {
	L1Miss, L2Miss, L3Miss, TLBMiss, Ops float64
}

func (p PerTupleCounters) String() string {
	return fmt.Sprintf("L1D=%.3f L2=%.3f L3=%.3f TLBD=%.3f ops=%.1f",
		p.L1Miss, p.L2Miss, p.L3Miss, p.TLBMiss, p.Ops)
}

// Hierarchy is the inclusive three-level simulator. It is not safe for
// concurrent use: profile runs execute single-threaded (the paper's
// counters are aggregated per-core anyway, and a single trace keeps the
// simulation deterministic).
type Hierarchy struct {
	l1, l2, l3 *level
	tlb        *TLB
	accesses   uint64
	ops        uint64
}

// New creates a Hierarchy from a Config.
func New(c Config) *Hierarchy {
	return &Hierarchy{
		l1:  newLevel(c.L1),
		l2:  newLevel(c.L2),
		l3:  newLevel(c.L3),
		tlb: NewTLB(64, 4<<10),
	}
}

// Access implements Tracer: translate through the TLB, then look up L1,
// L2, and L3 in order.
func (h *Hierarchy) Access(addr uint64) {
	h.accesses++
	h.tlb.Access(addr)
	if h.l1.access(addr) {
		return
	}
	if h.l2.access(addr) {
		return
	}
	h.l3.access(addr)
}

// Op implements Tracer.
func (h *Hierarchy) Op(n uint64) { h.ops += n }

// Counters returns the cumulative statistics.
func (h *Hierarchy) Counters() Counters {
	return Counters{
		Accesses: h.accesses,
		L1Miss:   h.l1.Misses,
		L2Miss:   h.l2.Misses,
		L3Miss:   h.l3.Misses,
		TLBMiss:  h.tlb.Misses,
		Ops:      h.ops,
	}
}

// Reset clears counters but keeps cache contents, so per-phase deltas can
// alternatively be taken with Counters().Sub.
func (h *Hierarchy) Reset() {
	h.accesses, h.ops = 0, 0
	h.l1.Hits, h.l1.Misses = 0, 0
	h.l2.Hits, h.l2.Misses = 0, 0
	h.l3.Hits, h.l3.Misses = 0, 0
	h.tlb.Hits, h.tlb.Misses = 0, 0
}

// TopDown models the Intel top-down breakdown (Figure 19a) from the
// simulated counters: memory-bound share grows with miss penalties,
// core-bound with the op-per-access intensity of frequent function calls,
// and retiring is the remainder. It is a coarse model, documented as a
// substitution in DESIGN.md.
type TopDown struct {
	Retiring, CoreBound, MemoryBound, FrontendBound, BadSpeculation float64
}

// Model derives a TopDown estimate. callsPerTuple captures the eager
// algorithms' pull-based function-call overhead (0 for lazy algorithms).
func Model(c Counters, tuples int, callsPerTuple float64) TopDown {
	if tuples == 0 {
		tuples = 1
	}
	// Latency-weighted stall cycles per tuple: L2 hit ~12, L3 hit ~40,
	// DRAM ~200 cycles (order-of-magnitude weights).
	n := float64(tuples)
	memStall := (float64(c.L1Miss)*12 + float64(c.L2Miss)*40 + float64(c.L3Miss)*200) / n
	coreStall := callsPerTuple * 8 // call/ret + dependency chains
	work := float64(c.Ops) / n
	if work == 0 {
		work = 1
	}
	frontend := work * 0.03
	badspec := work * 0.02
	total := memStall + coreStall + work + frontend + badspec
	return TopDown{
		Retiring:       work / total,
		CoreBound:      coreStall / total,
		MemoryBound:    memStall / total,
		FrontendBound:  frontend / total,
		BadSpeculation: badspec / total,
	}
}
