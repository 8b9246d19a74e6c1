// Package joins is the one table of the algorithms this repository runs:
// the eight of the paper's Table 2, each lazy or eager, and the handshake
// baseline. The public API (iawj.NewAlgorithm and its name lists), the
// experiment driver and the conformance matrix read it, so a name is
// spelled only where its implementation defines it. It is its own package
// because the root package's tests import internal/exp, which therefore
// cannot import the root package.
package joins

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/lazy"
)

type kind uint8

const (
	lazyJoin  kind = iota // buffers the window, then joins (Section 3.1)
	eagerJoin             // joins on arrival (Section 3.2)
	baseline              // runnable by name, not one of the studied eight
)

// table is in the paper's Table 2 order.
var table = []struct {
	alg  core.Algorithm
	kind kind
}{
	{lazy.NPJ{}, lazyJoin},
	{lazy.PRJ{}, lazyJoin},
	{lazy.MWay{}, lazyJoin},
	{lazy.MPass{}, lazyJoin},
	{eager.SHJ{}, eagerJoin},
	{eager.SHJ{JB: true}, eagerJoin},
	{eager.PMJ{}, eagerJoin},
	{eager.PMJ{JB: true}, eagerJoin},
	{eager.Handshake{}, baseline},
}

// New returns the algorithm of that name: one of All, or HANDSHAKE.
func New(name string) (core.Algorithm, error) {
	for _, e := range table {
		if e.alg.Name() == name {
			return e.alg, nil
		}
	}
	return nil, fmt.Errorf("unknown algorithm %q (want one of %v)", name, All())
}

// All names the eight studied algorithms in Table 2 order: the lazy four,
// then the eager four. Like Lazy and Eager it returns a fresh slice.
func All() []string { return append(Lazy(), Eager()...) }

// Lazy names the lazy subset.
func Lazy() []string { return names(lazyJoin) }

// Eager names the eager subset.
func Eager() []string { return names(eagerJoin) }

func names(k kind) []string {
	var out []string
	for _, e := range table {
		if e.kind == k {
			out = append(out, e.alg.Name())
		}
	}
	return out
}
