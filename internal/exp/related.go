package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
)

// related regenerates the related-work validation of Section 6: the paper
// implemented the handshake join and observed orders-of-magnitude lower
// throughput than any of the eight studied algorithms, due to the
// inter-window design's per-tuple state maintenance and communication.
func related(o *Options, t *Table) error {
	// A small static workload keeps the per-tuple pipeline hops of the
	// handshake join affordable while the ratio stays meaningful.
	n := int(float64(8_000) * float64(o.Scale) / 0.02)
	if n < 500 {
		n = 500
	}
	w := gen.MicroStatic(n, n, 4, 0, o.Seed)
	names := append(append([]string{}, algorithms...), "HANDSHAKE")
	tput := make([]float64, len(names))
	var best float64
	for i, name := range names {
		res, err := run(o, w, name, w.Name, core.Knobs{})
		if err != nil {
			return err
		}
		tput[i] = res.ThroughputTPM
		best = max(best, tput[i])
	}
	for i, name := range names {
		slow := "1.0x"
		if tput[i] > 0 && best > 0 {
			slow = fmt.Sprintf("%.1fx", best/tput[i])
		}
		t.add(name, tput[i], slow)
	}
	return nil
}

// sparkline renders a cumulative progress curve as a one-line ASCII
// chart: each column is a time bucket, its glyph the cumulative fraction
// reached by then.
func sparkline(points []metrics.CumulativePoint, cols int) string {
	if len(points) == 0 {
		return strings.Repeat(" ", cols)
	}
	glyphs := []rune(" .:-=+*#%@")
	maxV := points[len(points)-1].V
	if maxV < 1 {
		maxV = 1
	}
	out := make([]rune, cols)
	pi := 0
	frac := 0.0
	for c := 0; c < cols; c++ {
		t := int64(float64(c+1) / float64(cols) * float64(maxV))
		for pi < len(points) && points[pi].V <= t {
			frac = points[pi].Frac
			pi++
		}
		g := int(frac * float64(len(glyphs)-1))
		if g >= len(glyphs) {
			g = len(glyphs) - 1
		}
		out[c] = glyphs[g]
	}
	return string(out)
}
