package cachesim

import (
	"testing"
)

// tinyConfig keeps cache sizes small so eviction behaviour is testable.
func tinyConfig() Config {
	return Config{
		L1: LevelConfig{SizeBytes: 1 << 10, Ways: 2, LineSize: 64}, // 16 lines
		L2: LevelConfig{SizeBytes: 4 << 10, Ways: 4, LineSize: 64},
		L3: LevelConfig{SizeBytes: 16 << 10, Ways: 8, LineSize: 64},
	}
}

func TestRepeatedAccessHitsL1(t *testing.T) {
	h := New(tinyConfig())
	for i := 0; i < 100; i++ {
		h.Access(0x1000)
	}
	c := h.Counters()
	if c.L1Miss != 1 {
		t.Fatalf("L1 misses = %d, want 1 (cold miss only)", c.L1Miss)
	}
	if c.Accesses != 100 {
		t.Fatalf("accesses = %d", c.Accesses)
	}
}

func TestStreamingMissesEveryLevel(t *testing.T) {
	h := New(tinyConfig())
	// Touch far more distinct lines than L3 holds, twice; the second
	// sweep must still miss (capacity evictions).
	const lines = 4096
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < lines; i++ {
			h.Access(uint64(i) * 64)
		}
	}
	c := h.Counters()
	if c.L1Miss < lines {
		t.Fatalf("L1 misses = %d, want >= %d", c.L1Miss, lines)
	}
	if c.L3Miss < lines {
		t.Fatalf("L3 misses = %d, want >= %d (second sweep must also miss)", c.L3Miss, lines)
	}
}

func TestWorkingSetFitsInL2(t *testing.T) {
	h := New(tinyConfig())
	// 32 lines exceed L1 (16 lines) but fit in L2 (64 lines): after the
	// cold pass, accesses must hit L2, not L3.
	const lines = 32
	for sweep := 0; sweep < 10; sweep++ {
		for i := 0; i < lines; i++ {
			h.Access(uint64(i) * 64)
		}
	}
	c := h.Counters()
	if c.L2Miss > lines+4 {
		t.Fatalf("L2 misses = %d, want ~%d cold misses only", c.L2Miss, lines)
	}
}

func TestSameLineSharesEntry(t *testing.T) {
	h := New(tinyConfig())
	h.Access(0x100)
	h.Access(0x104) // same 64B line
	h.Access(0x13f)
	c := h.Counters()
	if c.L1Miss != 1 {
		t.Fatalf("intra-line accesses must share the entry: misses=%d", c.L1Miss)
	}
}

func TestOpsAndReset(t *testing.T) {
	h := New(DefaultConfig())
	h.Op(5)
	h.Access(0)
	h.Reset()
	c := h.Counters()
	if c.Ops != 0 || c.Accesses != 0 || c.L1Miss != 0 {
		t.Fatalf("reset failed: %+v", c)
	}
}

func TestCountersSubAndPerTuple(t *testing.T) {
	a := Counters{Accesses: 10, L1Miss: 6, L2Miss: 4, L3Miss: 2, Ops: 100}
	b := Counters{Accesses: 4, L1Miss: 2, L2Miss: 1, L3Miss: 1, Ops: 40}
	d := a.Sub(b)
	if d.Accesses != 6 || d.L1Miss != 4 || d.L2Miss != 3 || d.L3Miss != 1 || d.Ops != 60 {
		t.Fatalf("sub = %+v", d)
	}
	pt := d.PerTuple(2)
	if pt.L1Miss != 2 || pt.Ops != 30 {
		t.Fatalf("per tuple = %+v", pt)
	}
	if (Counters{}).PerTuple(0).L1Miss != 0 {
		t.Fatal("PerTuple(0) must not divide by zero")
	}
	if pt.String() == "" {
		t.Fatal("String must render")
	}
}

func TestPhasedSplitsCounters(t *testing.T) {
	p := NewPhased()
	p.SetPhase(1)
	for i := 0; i < 100; i++ {
		p.Access(uint64(i) * 64 * 1024) // distinct sets: misses
	}
	p.Op(10)
	p.SetPhase(4)
	p.Access(0)
	p.Flush()
	ph1 := p.Phase(1)
	ph4 := p.Phase(4)
	if ph1.Accesses != 100 || ph1.Ops != 10 {
		t.Fatalf("phase 1 = %+v", ph1)
	}
	if ph4.Accesses != 1 {
		t.Fatalf("phase 4 = %+v", ph4)
	}
	if total := p.Total(); total.Accesses != 101 {
		t.Fatalf("total = %+v", total)
	}
}

func TestTopDownModelSumsToOne(t *testing.T) {
	c := Counters{L1Miss: 1000, L2Miss: 100, L3Miss: 10, Ops: 100000}
	for _, calls := range []float64{0, 0.3, 2, 3} {
		td := Model(c, 1000, calls)
		sum := td.Retiring + td.CoreBound + td.MemoryBound + td.FrontendBound + td.BadSpeculation
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("top-down shares must sum to 1: %f", sum)
		}
	}
	// More call pressure must raise the core-bound share.
	lazy := Model(c, 1000, 0.3)
	eager := Model(c, 1000, 3)
	if eager.CoreBound <= lazy.CoreBound {
		t.Fatal("higher call pressure must increase core-bound share")
	}
}

func TestModelZeroTuples(t *testing.T) {
	td := Model(Counters{}, 0, 0)
	sum := td.Retiring + td.CoreBound + td.MemoryBound + td.FrontendBound + td.BadSpeculation
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("degenerate model must still normalize: %f", sum)
	}
}

func TestTLBSemantics(t *testing.T) {
	tlb := NewTLB(4, 4096)
	// Same page: one miss then hits.
	for i := 0; i < 10; i++ {
		tlb.Access(uint64(i) * 8)
	}
	if tlb.Misses != 1 {
		t.Fatalf("same-page accesses: misses = %d, want 1", tlb.Misses)
	}
	// Touch 8 distinct pages round-robin: 4-entry LRU thrashes.
	tlb = NewTLB(4, 4096)
	for rep := 0; rep < 3; rep++ {
		for p := 0; p < 8; p++ {
			tlb.Access(uint64(p) << 12)
		}
	}
	if tlb.Misses != 24 {
		t.Fatalf("thrashing pattern: misses = %d, want 24 (all)", tlb.Misses)
	}
}

func TestTLBDefaults(t *testing.T) {
	tlb := NewTLB(0, 0)
	if tlb.entries != 64 || tlb.pageBits != 12 {
		t.Fatalf("defaults: entries=%d pageBits=%d", tlb.entries, tlb.pageBits)
	}
}

func TestHierarchyCountsTLB(t *testing.T) {
	h := New(DefaultConfig())
	// Stride across pages: every access misses the 64-entry TLB after
	// warmup when the footprint is 1024 pages.
	for rep := 0; rep < 2; rep++ {
		for p := 0; p < 1024; p++ {
			h.Access(uint64(p) << 12)
		}
	}
	c := h.Counters()
	if c.TLBMiss < 2000 {
		t.Fatalf("TLB misses = %d, want ~2048", c.TLBMiss)
	}
}

func TestHierarchyImplementsTracer(t *testing.T) {
	var _ Tracer = New(DefaultConfig())
	var _ Tracer = NewPhased()
	var _ PhaseSetter = NewPhased()
}
