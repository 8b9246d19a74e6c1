package oracle

import (
	"fmt"
	"strconv"
	"strings"
)

// Case pins one cell of the conformance matrix: which algorithm, under
// which schedule, over which workload. A Case round-trips through a
// single seed string (String / ParseCase), so any failure anywhere in the
// matrix is reported as one token that `iawjconform -seed <token>`
// replays exactly — same tuples, same jitter, same perturbation envelope.
type Case struct {
	// Algorithm is a studied algorithm name (iawj.Algorithms).
	Algorithm string
	// Workload names a conformance workload shape (Workloads).
	Workload string
	// Threads is the worker count.
	Threads int
	// Seed drives workload generation, ingest jitter, and the
	// perturbation clock.
	Seed uint64
	// Pooled attaches a window-state pool (Config.Pool).
	Pooled bool
	// BatchSize overrides the eager pull batch; 0 keeps the default
	// batched path, 1 degenerates to tuple-at-a-time (the scalar path).
	BatchSize int
	// JitterMs shifts arrival timestamps by up to this much before the
	// run (ingest.JitterTS); 0 disables ingest jitter.
	JitterMs int64
	// Perturb wraps the run's clock in clock.Perturb, injecting yield
	// points and bounded time jitter into the schedule.
	Perturb bool
}

// caseVersion prefixes every seed string so the format can evolve without
// silently misreading old seeds.
const caseVersion = "c1"

// String encodes the case as its replayable seed string.
func (c Case) String() string {
	b01 := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	return strings.Join([]string{
		caseVersion,
		c.Algorithm,
		c.Workload,
		"t" + strconv.Itoa(c.Threads),
		"s" + strconv.FormatUint(c.Seed, 16),
		"p" + b01(c.Pooled),
		"b" + strconv.Itoa(c.BatchSize),
		"j" + strconv.FormatInt(c.JitterMs, 10),
		"y" + b01(c.Perturb),
	}, ".")
}

// ParseCase decodes a seed string produced by String.
func ParseCase(s string) (Case, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 9 || parts[0] != caseVersion {
		return Case{}, fmt.Errorf("oracle: malformed seed %q (want %s.ALGO.workload.tN.sHEX.pB.bN.jN.yB)", s, caseVersion)
	}
	c := Case{Algorithm: parts[1], Workload: parts[2]}
	field := func(i int, tag string) (string, error) {
		if !strings.HasPrefix(parts[i], tag) {
			return "", fmt.Errorf("oracle: seed %q: field %d must start with %q", s, i, tag)
		}
		return parts[i][len(tag):], nil
	}
	var err error
	var v string
	if v, err = field(3, "t"); err == nil {
		c.Threads, err = strconv.Atoi(v)
	}
	if err != nil {
		return Case{}, err
	}
	if v, err = field(4, "s"); err == nil {
		c.Seed, err = strconv.ParseUint(v, 16, 64)
	}
	if err != nil {
		return Case{}, err
	}
	if v, err = field(5, "p"); err == nil {
		c.Pooled = v == "1"
	}
	if err != nil {
		return Case{}, err
	}
	if v, err = field(6, "b"); err == nil {
		c.BatchSize, err = strconv.Atoi(v)
	}
	if err != nil {
		return Case{}, err
	}
	if v, err = field(7, "j"); err == nil {
		c.JitterMs, err = strconv.ParseInt(v, 10, 64)
	}
	if err != nil {
		return Case{}, err
	}
	if v, err = field(8, "y"); err == nil {
		c.Perturb = v == "1"
	}
	if err != nil {
		return Case{}, err
	}
	if c.Threads < 1 {
		return Case{}, fmt.Errorf("oracle: seed %q: thread count %d", s, c.Threads)
	}
	return c, nil
}
