// Package zipf implements a deterministic finite-domain Zipfian sampler.
//
// The paper parameterizes both key skewness (skew_key) and timestamp
// skewness (skew_ts) with a Zipf factor between 0 (uniform) and 2 (heavily
// skewed). This generator follows the classic Gray et al. rejection-free
// inversion used by YCSB: element ranks are drawn with probability
// proportional to 1/rank^theta.
package zipf

import (
	"math"
	"math/rand/v2"
)

// Generator draws values in [0, N) with Zipfian frequency of exponent
// Theta. Theta = 0 degenerates to the uniform distribution. A Generator is
// not safe for concurrent use; create one per goroutine.
type Generator struct {
	n     uint64
	theta float64
	rng   *rand.Rand

	// precomputed constants of the inversion method
	alpha, zetan, eta float64
}

// New creates a Zipf generator over [0, n) with skew theta, seeded
// deterministically. n must be at least 1; theta must be non-negative and
// not exactly 1 (values within 1e-9 of 1 are nudged, as is conventional).
func New(n uint64, theta float64, seed uint64) *Generator {
	if n == 0 {
		n = 1
	}
	if theta < 0 {
		theta = 0
	}
	if math.Abs(theta-1) < 1e-9 {
		theta = 1 + 1e-6
	}
	g := &Generator{
		n:     n,
		theta: theta,
		rng:   rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
	if theta > 0 {
		g.zetan = zeta(n, theta)
		zeta2 := zeta(2, theta)
		g.alpha = 1 / (1 - theta)
		g.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/g.zetan)
	}
	return g
}

// zeta computes the generalized harmonic number H_{n,theta}. For large n
// this is the dominant setup cost; generators are created once per stream.
func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next Zipf-distributed value in [0, N). Rank 0 is the most
// frequent element.
func (g *Generator) Next() uint64 {
	if g.theta == 0 {
		return g.rng.Uint64N(g.n)
	}
	u := g.rng.Float64()
	uz := u * g.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, g.theta) {
		return 1
	}
	return uint64(float64(g.n) * math.Pow(g.eta*u-g.eta+1, g.alpha))
}

// N returns the domain size.
func (g *Generator) N() uint64 { return g.n }

// Theta returns the skew exponent.
func (g *Generator) Theta() float64 { return g.theta }

// Mix64 is the splitmix64 finalizer: a cheap, high-quality bijective hash.
// The generators, the perturbation clock, the ingest jitter and the
// oracle's cases derive every independent seed and pseudo-random decision
// from one seed with it, so no rand state needs locking or passing around.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
