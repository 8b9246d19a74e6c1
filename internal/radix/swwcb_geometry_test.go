package radix

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/tuple"
)

// The SWWCB geometry (defaultFlushTuples, defaultDirectBelow) was tuned
// against measurements on the evaluation host (PERFORMANCE.md §"Winning
// back the kernels"). These tests pin the other half of the argument: in
// the simulated paper hierarchy (Xeon Gold 6126 caches, 64-entry 4 KiB
// TLB), the tuned geometry's miss counts beat the configuration it
// replaced — the legacy always-staged one-cache-line (4-tuple) buffer —
// at the fanouts the benchmarks run, so the tuning is not an artifact of
// one machine's noise.

func geometryRel(n int) tuple.Relation {
	rel := make(tuple.Relation, n)
	s := uint64(0x9e3779b97f4a7c15)
	for i := range rel {
		s = s*6364136223846793005 + 1442695040888963407
		rel[i] = tuple.Tuple{Key: int32(s >> 33), Payload: int32(i)}
	}
	return rel
}

// simCounters runs one traced PartitionHashed under the default simulated
// hierarchy and returns the counters.
func simCounters(rel tuple.Relation, bits, flushT, directBelow int) cachesim.Counters {
	p := NewPartitioner()
	p.flushT, p.directBelow = flushT, directBelow
	h := cachesim.New(cachesim.DefaultConfig())
	p.PartitionHashed(rel, bits, h, 0)
	return h.Counters()
}

func cacheMisses(c cachesim.Counters) uint64 { return c.L1Miss + c.L2Miss + c.L3Miss }

func totalMisses(c cachesim.Counters) uint64 { return cacheMisses(c) + c.TLBMiss }

// TestGeometryTunedBeatsLegacyDirectRegime: at the benchmark fanout
// (2^12) and at the top of the measured direct range (2^14), the tuned
// geometry — which scatters directly — must beat the legacy always-staged
// 4-tuple buffer on simulated cache misses at every level, and on total
// accesses (staging writes every tuple twice). At 2^14 the staging array
// itself has outgrown the simulated TLB's reach, so the tuned config must
// win the TLB count too — the very metric staging was designed for.
func TestGeometryTunedBeatsLegacyDirectRegime(t *testing.T) {
	rel := geometryRel(1 << 17)
	for _, bits := range []int{12, 14} {
		tuned := simCounters(rel, bits, 0, 0) // package defaults
		legacy := simCounters(rel, bits, 4, 1)
		if tuned.Accesses >= legacy.Accesses {
			t.Errorf("bits=%d: tuned accesses %d >= legacy %d", bits, tuned.Accesses, legacy.Accesses)
		}
		if tuned.L1Miss >= legacy.L1Miss || tuned.L2Miss >= legacy.L2Miss || tuned.L3Miss >= legacy.L3Miss {
			t.Errorf("bits=%d: tuned misses L1=%d L2=%d L3=%d not strictly below legacy L1=%d L2=%d L3=%d",
				bits, tuned.L1Miss, tuned.L2Miss, tuned.L3Miss, legacy.L1Miss, legacy.L2Miss, legacy.L3Miss)
		}
		if bits >= 14 && tuned.TLBMiss >= legacy.TLBMiss {
			t.Errorf("bits=%d: tuned TLB misses %d >= legacy %d", bits, tuned.TLBMiss, legacy.TLBMiss)
		}
	}
}

// TestGeometryTunedBeatsLegacyStagedRegime: at fanouts at or above
// defaultDirectBelow the tuned geometry engages staging with the 8-tuple
// (two-line) buffer. It must beat the legacy 4-tuple buffer on total
// simulated misses: the wider buffer halves the flush bookkeeping and its
// staging array has better line utilization.
func TestGeometryTunedBeatsLegacyStagedRegime(t *testing.T) {
	rel := geometryRel(1 << 17)
	bits := 16 // fanout 65536 >= defaultDirectBelow
	if Fanout(bits) < defaultDirectBelow {
		t.Fatalf("test bits %d no longer reaches the staged regime (directBelow=%d)", bits, defaultDirectBelow)
	}
	tuned := simCounters(rel, bits, 0, 0)
	legacy := simCounters(rel, bits, 4, 1)
	if totalMisses(tuned) >= totalMisses(legacy) {
		t.Errorf("staged regime bits=%d: tuned total misses %d >= legacy %d",
			bits, totalMisses(tuned), totalMisses(legacy))
	}
}

// TestGeometryStagingPaysAtLowFanoutInSim pins the honest part of the
// story: the simulator reproduces the classic SWWCB argument. At a low
// fanout (2^10) with the small-page 64-entry TLB, always-staging still
// wins the TLB-inclusive total in the model — the staging array fits TLB
// reach while the direct frontier does not. The measured host disagrees
// (large pages and a deep TLB; see PERFORMANCE.md), which is exactly why
// the shipped threshold comes from measurement rather than the model.
func TestGeometryStagingPaysAtLowFanoutInSim(t *testing.T) {
	rel := geometryRel(1 << 17)
	stagedLow := simCounters(rel, 10, 4, 1)
	direct := simCounters(rel, 10, 0, 0)
	if totalMisses(stagedLow) >= totalMisses(direct) {
		t.Errorf("bits=10: staged total misses %d >= direct %d — the sim no longer reproduces the SWWCB TLB argument",
			totalMisses(stagedLow), totalMisses(direct))
	}
	if stagedLow.TLBMiss >= direct.TLBMiss {
		t.Errorf("bits=10: staged TLB misses %d >= direct %d", stagedLow.TLBMiss, direct.TLBMiss)
	}
}

// TestGeometryInvariance: geometry is a layout knob, never a semantic
// one — partition order and contents are byte-identical across direct,
// legacy-staged, and tuned-staged configurations, traced or not.
func TestGeometryInvariance(t *testing.T) {
	rel := geometryRel(1 << 13)
	for _, bits := range []int{0, 3, 7, 11} {
		base, baseH := NewPartitioner().PartitionHashed(rel, bits, nil, 0)
		for _, cfg := range [][2]int{{4, 1}, {8, 1}, {16, 1}, {8, 1 << 30}} {
			p := NewPartitioner()
			p.flushT, p.directBelow = cfg[0], cfg[1]
			got, gotH := p.PartitionHashed(rel, bits, nil, 0)
			if len(got) != len(base) {
				t.Fatalf("bits=%d geom=%v: fanout %d != %d", bits, cfg, len(got), len(base))
			}
			for pi := range base {
				if len(got[pi]) != len(base[pi]) {
					t.Fatalf("bits=%d geom=%v part=%d: len %d != %d", bits, cfg, pi, len(got[pi]), len(base[pi]))
				}
				for j := range base[pi] {
					if got[pi][j] != base[pi][j] || gotH[pi][j] != baseH[pi][j] {
						t.Fatalf("bits=%d geom=%v part=%d idx=%d: tuple/hash mismatch", bits, cfg, pi, j)
					}
				}
			}
			// Traced runs must agree with untraced ones as well.
			ht := cachesim.New(cachesim.DefaultConfig())
			tr, _ := p.PartitionHashed(rel, bits, ht, 0)
			for pi := range base {
				for j := range base[pi] {
					if tr[pi][j] != base[pi][j] {
						t.Fatalf("bits=%d geom=%v part=%d idx=%d: traced tuple mismatch", bits, cfg, pi, j)
					}
				}
			}
		}
	}
}
