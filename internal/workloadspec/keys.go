package workloadspec

import (
	"math/rand/v2"

	"repro/internal/zipf"
)

// Hotset defaults.
const (
	defaultHotKeys = 8
	defaultHotFrac = 0.9
)

// keyDrawer draws one join key per call; each client gets its own drawer
// seeded from the spec seed, so key sequences are deterministic and
// independent across clients and streams.
type keyDrawer func() int32

// newKeyDrawer builds the client's key source. Zipf ranks are scrambled
// through a seeded permutation exactly like gen.* workloads, so a hot key
// is an arbitrary domain element rather than always key 0.
func newKeyDrawer(k KeySpec, seed uint64) keyDrawer {
	domain := k.Domain
	if domain < 1 {
		domain = 1
	}
	rng := rand.New(rand.NewPCG(seed, zipf.Mix64(seed^0xcee5)))
	switch k.Dist {
	case KeysZipf:
		zg := zipf.New(uint64(domain), k.Theta, zipf.Mix64(seed^0x21bf))
		scramble := rand.New(rand.NewPCG(zipf.Mix64(seed^0x5ca4b1e), seed)).Perm(domain)
		return func() int32 { return int32(scramble[zg.Next()]) }
	case KeysHotset:
		hot := k.HotKeys
		if hot == 0 {
			hot = defaultHotKeys
		}
		if hot > domain {
			hot = domain
		}
		frac := k.HotFrac
		if frac == 0 {
			frac = defaultHotFrac
		}
		// A scrambled identity keeps the hot set an arbitrary subset of
		// the domain, mirroring the zipf scramble.
		scramble := rand.New(rand.NewPCG(zipf.Mix64(seed^0x4075e7), seed)).Perm(domain)
		cold := domain - hot
		return func() int32 {
			if cold == 0 || rng.Float64() < frac {
				return int32(scramble[rng.IntN(hot)])
			}
			return int32(scramble[hot+rng.IntN(cold)])
		}
	default: // KeysUniform
		return func() int32 { return int32(rng.IntN(domain)) }
	}
}

// payloadDrawer draws payload values for clients with an explicit payload
// spec; nil means "assign the stream-wide sequence after merging" (the
// gen.* convention).
func newPayloadDrawer(p *PayloadSpec, seed uint64) func() int32 {
	if p == nil || p.Kind == PayloadSeq {
		return nil
	}
	rng := rand.New(rand.NewPCG(seed, zipf.Mix64(seed^0x9a10ad)))
	lo, hi := p.Min, p.Max
	span := int64(hi) - int64(lo) + 1
	return func() int32 { return lo + int32(rng.Int64N(span)) }
}
