package sortmerge

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/tuple"
)

// shapedRel draws n tuples whose keys have one of the shapes the radix
// sort's digit skipping tells apart; Payload and TS record input order.
func shapedRel(n int, shape uint8, seed uint64) tuple.Relation {
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	rel := make(tuple.Relation, n)
	for i := range rel {
		var k int32
		switch shape % 7 {
		case 0: // one key: every digit skipped
			k = 7
		case 1: // below 2^11: one wide pass, many duplicates
			k = rng.Int32N(1 << 11)
		case 2: // below 2^20, rest_unique's domain: two wide passes
			k = rng.Int32N(1 << 20)
		case 3: // negative and positive: the top digit of the rank differs
			k = rng.Int32N(1<<11) - 1<<10
		case 4: // full 32-bit keys: no digit skipped
			k = int32(rng.Uint32())
		case 5: // only the top byte varies: the low digits are skipped
			k = int32(rng.Uint32() & 0xff000000)
		case 6: // past 2·msdFrom, one part of the split has a digit of its own to split on again
			if rng.IntN(10) < 7 {
				k = rng.Int32N(1 << 22)
			} else {
				k = -rng.Int32N(1<<30) - 1
			}
		}
		rel[i] = tuple.Tuple{TS: int64(i), Key: k, Payload: int32(i)}
	}
	return rel
}

// countTracer is a cache-simulation hook that only counts, so the traced
// sort can be checked against the untraced one.
type countTracer struct{ accesses, ops uint64 }

func (c *countTracer) Access(uint64) { c.accesses++ }
func (c *countTracer) Op(n uint64)   { c.ops += n }

// FuzzRadixSortDiff checks the radix sort, untraced and traced, against
// the standard library's stable sort on KeyRank: every tuple, so payload
// order within a key — stability — is checked too. The seeds cross every
// key shape with n ∈ {0, 1, 2, 3}, a short run and both sides of the
// digit width's threshold, and the shapes an MSD split tells apart at its
// threshold, one of them also twice past it.
func FuzzRadixSortDiff(f *testing.F) {
	for shape := uint8(0); shape < 7; shape++ {
		for _, n := range []uint32{0, 1, 2, 3, 255, wideFrom - 1, wideFrom} {
			f.Add(uint64(shape)+1, n, shape)
		}
	}
	for _, shape := range []uint8{2, 4, 5, 6} {
		f.Add(uint64(shape)+1, uint32(msdFrom), shape)
	}
	f.Add(uint64(7), uint32(2*msdFrom), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, n uint32, shape uint8) {
		n %= 4 * msdFrom
		rel := shapedRel(int(n), shape, seed)
		want := slices.Clone(rel)
		slices.SortStableFunc(want, func(a, b tuple.Tuple) int { return cmp.Compare(KeyRank(a.Key), KeyRank(b.Key)) })
		for _, tr := range []cachesim.Tracer{nil, &countTracer{}} {
			got := slices.Clone(rel)
			SortByKeyScratch(got, make([]tuple.Tuple, len(got)), true, tr, 0)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d shape=%d traced=%v: tuple %d is %+v, the stable reference has %+v",
						n, shape%7, tr != nil, i, got[i], want[i])
				}
			}
		}
	})
}
