package oracle

import (
	"testing"

	iawj "repro"
	"repro/internal/gen"
)

// FuzzConformance is the randomized half of the differential oracle:
// arbitrary workload shapes (sizes, duplication, skew, thread counts)
// drive all eight algorithms, and every run must reproduce the reference
// fingerprint — not just the match count. Registered in the check
// pipeline's fuzz smoke stage (scripts/check.sh).
func FuzzConformance(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(40), uint8(2), uint8(0))
	f.Add(uint64(7), uint8(0), uint8(9), uint8(1), uint8(12))
	f.Add(uint64(1<<32), uint8(255), uint8(3), uint8(64), uint8(20))
	// seed%5 == 4 routes the cell through the workload-spec compiler
	// (specmicro) instead of MicroStatic, so the fuzzer also stresses
	// spec-compiled plans; the earlier seeds (mod 5: 1, 2, 1) keep their
	// historical MicroStatic shapes.
	f.Add(uint64(4), uint8(60), uint8(60), uint8(3), uint8(0))
	f.Add(uint64(19), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nR, nS, dupeB, skew10 uint8) {
		dupe := int(dupeB)%64 + 1 // the generator requires dupe >= 1
		var w gen.Workload
		if seed%5 == 4 {
			var err error
			w, err = BuildWorkload(WSpecMicro, seed)
			if err != nil {
				t.Fatalf("seed=%d specmicro: %v", seed, err)
			}
		} else {
			w = gen.MicroStatic(int(nR), int(nS), dupe, float64(skew10)/10, seed)
		}
		want := Reference(w.R, w.S)
		threads := int(seed%4) + 1
		for _, alg := range iawj.Algorithms() {
			sink := NewSink()
			cfg := iawj.Config{Algorithm: alg, Threads: threads, AtRest: true, Emit: sink.Emit}
			if seed%2 == 0 {
				cfg.Pool = iawj.NewStatePool()
			}
			res, err := iawj.Join(w.R, w.S, cfg)
			if err != nil {
				t.Fatalf("seed=%d %s: %v", seed, alg, err)
			}
			got := sink.Digest()
			if !got.Full.Equal(want.Full) || res.Matches != want.Full.Count {
				t.Fatalf("seed=%d nR=%d nS=%d dupe=%d skew=%.1f %s threads=%d: digest %s matches %d, oracle %s",
					seed, nR, nS, dupe, float64(skew10)/10, alg, threads, got.Full, res.Matches, want.Full)
			}
		}
	})
}
