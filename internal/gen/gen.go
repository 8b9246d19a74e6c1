// Package gen synthesizes the benchmark workloads of the study.
//
// Micro reproduces the tunable synthetic workload derived from Kim et al.:
// arrival rate, window length, key duplication, key skewness and timestamp
// skewness are all knobs. The four real-world workloads of Table 3 (Stock,
// Rovio, YSB, DEBS) rely on datasets that are proprietary or external, so
// this package synthesizes statistical equivalents matched to the published
// characteristics: arrival rates, key duplicates, Zipf key skew, tuple
// counts, and the spiky-vs-uniform timestamp distributions of Figure 3.
// DESIGN.md §4 documents the substitution.
package gen

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/tuple"
	"repro/internal/zipf"
)

// MicroConfig parameterizes the synthetic Micro workload. Zero values fall
// back to the defaults the paper uses where sensible.
type MicroConfig struct {
	// RateR and RateS are arrival rates in tuples per millisecond.
	RateR, RateS int
	// WindowMs is the window length w in milliseconds (default 1000).
	WindowMs int64
	// Dupe is the average number of duplicates per key (default 1:
	// unique keys).
	Dupe int
	// KeySkew is the Zipf factor of key selection (0 = uniform draws
	// over the key domain; with Dupe=1 keys are a unique permutation).
	KeySkew float64
	// TSSkew is the Zipf factor of arrival timestamps; larger values
	// skew arrivals toward the start of the window (Section 5.4).
	TSSkew float64
	// Seed makes generation deterministic.
	Seed uint64
}

func (c *MicroConfig) defaults() {
	if c.WindowMs <= 0 {
		c.WindowMs = 1000
	}
	if c.RateR <= 0 {
		c.RateR = 16
	}
	if c.RateS <= 0 {
		c.RateS = c.RateR
	}
	if c.Dupe <= 0 {
		c.Dupe = 1
	}
}

// Workload is a pair of input streams restricted to one window, plus the
// metadata the harness needs.
type Workload struct {
	Name     string
	R, S     tuple.Relation
	WindowMs int64
	// AtRest marks static inputs (arrival rate "infinity"): all tuples
	// are instantly available and carry timestamp 0 semantics.
	AtRest bool
}

// Micro generates the synthetic workload.
func Micro(cfg MicroConfig) Workload {
	cfg.defaults()
	nR := int(int64(cfg.RateR) * cfg.WindowMs)
	nS := int(int64(cfg.RateS) * cfg.WindowMs)
	r := genStream(nR, cfg.WindowMs, cfg.Dupe, cfg.KeySkew, cfg.TSSkew, cfg.Seed*2+1)
	s := genStream(nS, cfg.WindowMs, cfg.Dupe, cfg.KeySkew, cfg.TSSkew, cfg.Seed*2+2)
	return Workload{Name: "Micro", R: r, S: s, WindowMs: cfg.WindowMs}
}

// MicroStatic generates the Section 5.5 configuration: all tuples available
// instantly (the impact of wait eliminated) with the given sizes.
func MicroStatic(nR, nS, dupe int, keySkew float64, seed uint64) Workload {
	r := genStream(nR, 1, dupe, keySkew, 0, seed*2+1)
	s := genStream(nS, 1, dupe, keySkew, 0, seed*2+2)
	return Workload{Name: "MicroStatic", R: r, S: s, WindowMs: 0, AtRest: true}
}

// genStream emits n time-ordered tuples across a window of w ms.
func genStream(n int, w int64, dupe int, keySkew, tsSkew float64, seed uint64) tuple.Relation {
	if n <= 0 {
		return nil
	}
	rel := make(tuple.Relation, n)
	assignTimestamps(rel, w, tsSkew, seed)
	assignKeys(rel, dupe, keySkew, seed)
	for i := range rel {
		rel[i].Payload = int32(i)
	}
	return rel
}

// assignTimestamps stamps arrival times. With tsSkew == 0 arrivals are
// uniform: rate tuples per ms, in order. With tsSkew > 0 arrivals are drawn
// from a Zipf over the window's milliseconds so early slots receive more
// tuples, matching the Section 5.4 arrival-skew experiment; tuples are then
// ordered chronologically.
func assignTimestamps(rel tuple.Relation, w int64, tsSkew float64, seed uint64) {
	n := len(rel)
	if w <= 1 {
		return // all zero: static input
	}
	if tsSkew == 0 {
		for i := range rel {
			rel[i].TS = int64(i) * w / int64(n)
		}
		return
	}
	zg := zipf.New(uint64(w), tsSkew, seed^0xfeed)
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64(zg.Next())
	}
	// Counting sort over the w millisecond slots keeps this O(n + w).
	counts := make([]int, w)
	for _, t := range ts {
		counts[t]++
	}
	i := 0
	for slot := int64(0); slot < w; slot++ {
		for c := counts[slot]; c > 0; c-- {
			rel[i].TS = slot
			i++
		}
	}
}

// assignKeys fills join keys so the stream averages dupe duplicates per
// key. With keySkew == 0 and dupe == 1 keys are a random permutation
// (unique). Otherwise keys are drawn from a domain of n/dupe values,
// uniformly or Zipf-skewed.
func assignKeys(rel tuple.Relation, dupe int, keySkew float64, seed uint64) {
	n := len(rel)
	domain := n / dupe
	if domain < 1 {
		domain = 1
	}
	if keySkew == 0 && dupe == 1 {
		rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		perm := rng.Perm(n)
		for i := range rel {
			rel[i].Key = int32(perm[i])
		}
		return
	}
	if keySkew == 0 {
		rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		for i := range rel {
			rel[i].Key = int32(rng.IntN(domain))
		}
		return
	}
	zg := zipf.New(uint64(domain), keySkew, seed^0xbeef)
	// Scramble the rank->key mapping so hot keys don't cluster at 0,
	// which would make radix partitioning trivially skewed in a way the
	// Zipf factor alone does not imply.
	scramble := rand.New(rand.NewPCG(seed^0x5ca4b1e, seed)).Perm(domain)
	for i := range rel {
		rel[i].Key = int32(scramble[zg.Next()])
	}
}

// MicroFK generates the foreign-key variant of the synthetic workload
// used for the key-skewness study: R carries unique keys (the "primary"
// side) and S references them with Zipf-distributed frequency, as in the
// Kim et al. benchmark the paper derives Micro from. Every S tuple
// matches exactly one R tuple, so the total match count stays constant
// while skew shifts the access locality — hot R keys are revisited more
// often, and radix partitions become imbalanced.
func MicroFK(rate int, windowMs int64, keySkew float64, seed uint64) Workload {
	if rate <= 0 {
		rate = 16
	}
	if windowMs <= 0 {
		windowMs = 1000
	}
	n := int(int64(rate) * windowMs)
	r := make(tuple.Relation, n)
	s := make(tuple.Relation, n)
	uniformTS(r, windowMs)
	uniformTS(s, windowMs)
	rng := rand.New(rand.NewPCG(seed, seed^0xfa11))
	perm := rng.Perm(n)
	for i := range r {
		r[i].Key = int32(perm[i])
	}
	if keySkew == 0 {
		for i := range s {
			s[i].Key = int32(perm[rng.IntN(n)])
		}
	} else {
		zg := zipf.New(uint64(n), keySkew, seed^0xfb22)
		for i := range s {
			s[i].Key = int32(perm[zg.Next()])
		}
	}
	stampPayloads(r, s)
	return Workload{Name: "MicroFK", R: r, S: s, WindowMs: windowMs}
}

// spiky stamps arrivals as a base uniform rate plus heavy spikes at a few
// slots, reproducing the Stock trade/quote pattern of Figure 3a.
func spiky(rel tuple.Relation, w int64, baseFrac float64, spikes int, seed uint64) {
	n := len(rel)
	if w <= 1 || n == 0 {
		return
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x51c4))
	base := int(float64(n) * baseFrac)
	counts := make([]int, w)
	for i := 0; i < base; i++ {
		counts[rng.Int64N(w)]++
	}
	rest := n - base
	if spikes < 1 {
		spikes = 1
	}
	for s := 0; s < spikes; s++ {
		slot := rng.Int64N(w)
		share := rest / spikes
		if s == spikes-1 {
			share = rest - share*(spikes-1)
		}
		counts[slot] += share
	}
	i := 0
	for slot := int64(0); slot < w; slot++ {
		for c := counts[slot]; c > 0; c-- {
			rel[i].TS = slot
			i++
		}
	}
	if i != n { // distribute rounding remainder at the end of the window
		for ; i < n; i++ {
			rel[i].TS = w - 1
		}
	}
}

// Scale shrinks the real-world workload sizes so tests and default bench
// runs stay fast; Scale=1 approximates the paper's magnitudes.
type Scale float64

// Real-world workload constructors. Each matches the Table 3 statistics at
// the requested scale.

// Stock synthesizes the stock-exchange workload: low arrival rates
// (vR=61, vS=77 tuples/ms), moderate key duplication (~68/~79), the
// highest key skew of the four, and spiky arrivals (Figure 3a).
func Stock(sc Scale, seed uint64) Workload {
	w := scaledWindow(sc)
	nR := scaled(61*1000, sc)
	nS := scaled(77*1000, sc)
	r := make(tuple.Relation, nR)
	s := make(tuple.Relation, nS)
	spiky(r, w, 0.45, 4, seed*2+1)
	spiky(s, w, 0.45, 4, seed*2+2)
	skewedKeys(r, domainFloor(nR/68), 0.112, seed*2+1)
	skewedKeys(s, domainFloor(nS/79), 0.158, seed*2+2)
	stampPayloads(r, s)
	return Workload{Name: "Stock", R: r, S: s, WindowMs: w}
}

// Rovio synthesizes the ad/purchase correlation workload: medium arrival
// rates (3000 tuples/ms each), extreme key duplication (dupe≈17960,
// i.e. a tiny key domain), low skew, stable arrival pattern (Figure 3b).
func Rovio(sc Scale, seed uint64) Workload {
	w := scaledWindow(sc)
	n := scaled(3000*1000, sc)
	// Preserve the paper's duplication *ratio* dupe/|R| ≈ 17960/3e6 so
	// the scaled-down key domain stays proportionally tiny.
	domain := max(n/max(n*17960/3000000, 1), 1)
	r := make(tuple.Relation, n)
	s := make(tuple.Relation, n)
	uniformTS(r, w)
	uniformTS(s, w)
	skewedKeys(r, domain, 0.042, seed*2+1)
	skewedKeys(s, domain, 0.042, seed*2+2)
	stampPayloads(r, s)
	return Workload{Name: "Rovio", R: r, S: s, WindowMs: w}
}

// YSB synthesizes the Yahoo streaming benchmark join: R is a static
// campaigns table of unique keys (arrival rate "infinity"), S is a fast
// advertisement stream (~1e4 tuples/ms) whose every key hits the table.
func YSB(sc Scale, seed uint64) Workload {
	w := scaledWindow(sc)
	nR := scaled(100000, sc) // campaigns table (paper: 1e5 rows, 1000 campaigns scaled by generator)
	nS := scaled(10000*1000, sc)
	r := make(tuple.Relation, nR)
	s := make(tuple.Relation, nS)
	// R at rest: all timestamps zero, unique keys.
	rng := rand.New(rand.NewPCG(seed, seed^0x757b))
	perm := rng.Perm(nR)
	for i := range r {
		r[i].Key = int32(perm[i])
	}
	uniformTS(s, w)
	for i := range s {
		s[i].Key = int32(rng.IntN(nR))
	}
	stampPayloads(r, s)
	return Workload{Name: "YSB", R: r, S: s, WindowMs: w}
}

// DEBS synthesizes the social-network post/comment join: both inputs at
// rest (|R|=1e5, |S|=1e6), high duplication on S (~1115) and moderate on R
// (~173), negligible skew.
func DEBS(sc Scale, seed uint64) Workload {
	nR := scaled(100000, sc)
	nS := scaled(1000000, sc)
	r := make(tuple.Relation, nR)
	s := make(tuple.Relation, nS)
	users := domainFloor(nR / 173)
	skewedKeys(r, users, 0.003, seed*2+1)
	skewedKeys(s, users, 0.011, seed*2+2)
	stampPayloads(r, s)
	return Workload{Name: "DEBS", R: r, S: s, WindowMs: 0, AtRest: true}
}

// ByName builds one of the named workloads ("Stock", "Rovio", "YSB",
// "DEBS"); it returns an error for unknown names.
func ByName(name string, sc Scale, seed uint64) (Workload, error) {
	switch name {
	case "Stock", "stock":
		return Stock(sc, seed), nil
	case "Rovio", "rovio":
		return Rovio(sc, seed), nil
	case "YSB", "ysb":
		return YSB(sc, seed), nil
	case "DEBS", "debs":
		return DEBS(sc, seed), nil
	}
	return Workload{}, fmt.Errorf("gen: unknown workload %q", name)
}

// Names lists the real-world workload names in paper order.
func Names() []string { return []string{"Stock", "Rovio", "YSB", "DEBS"} }

func uniformTS(rel tuple.Relation, w int64) {
	n := len(rel)
	for i := range rel {
		rel[i].TS = int64(i) * w / int64(n)
	}
}

func skewedKeys(rel tuple.Relation, domain int, theta float64, seed uint64) {
	zg := zipf.New(uint64(domain), theta, seed^0xd15ea5e)
	scramble := rand.New(rand.NewPCG(seed^0x77aa, seed)).Perm(domain)
	for i := range rel {
		rel[i].Key = int32(scramble[zg.Next()])
	}
}

func stampPayloads(rels ...tuple.Relation) {
	for _, rel := range rels {
		for i := range rel {
			rel[i].Payload = int32(i)
		}
	}
}

// scaledWindow shrinks the 1-second paper window with the workload scale
// so the arrival rates (tuples/ms) stay at their published values; the
// rates, not the absolute window length, drive the lazy/eager trade-offs.
func scaledWindow(sc Scale) int64 {
	if sc <= 0 {
		sc = 1
	}
	w := int64(1000 * float64(sc))
	if w < 10 {
		w = 10
	}
	if w > 1000 {
		w = 1000
	}
	return w
}

func scaled(n int, sc Scale) int {
	if sc <= 0 {
		sc = 1
	}
	v := int(float64(n) * float64(sc))
	if v < 1 {
		v = 1
	}
	return v
}

// domainFloor keeps scaled-down key domains from collapsing into a
// handful of keys, which would turn the workload into a degenerate
// cross-product unlike anything the paper measures.
func domainFloor(n int) int {
	if n < 64 {
		return 64
	}
	return n
}
