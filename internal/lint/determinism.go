package lint

import "go/ast"

// determinism flags raw wall-clock reads and global math/rand draws in
// algorithm code. A single stray time.Now in a join kernel silently breaks
// the simulated-arrival model (every experiment assumes time flows through
// internal/clock), and an unseeded global rand makes a benchmark sweep
// unrepeatable. Sanctioned wall-clock call sites (internal/clock itself,
// the metrics harness) are path-allowlisted.
var determinism = Rule{
	Name:     "determinism",
	Doc:      "no time.Now/time.Since/global math/rand outside internal/clock and internal/metrics",
	Contract: "Replays and golden files require run-to-run byte stability. Wall-clock reads (time.Now) and unseeded randomness are banned outside internal/clock and the metrics harness; derive time from the run ledger and randomness from the seeded workload spec.",
	Sev:      Error,
	Check:    perPackage(checkDeterminism),
}

// wallClockFuncs are the time package reads that leak real time into
// algorithm state. time.Sleep is deliberately absent: sleeping is pacing,
// not measurement.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// globalRandFuncs are the top-level math/rand (and v2) draws that consume
// the shared, unseedable-per-run source. Constructing a seeded generator
// (rand.New, rand.NewPCG, rand.NewSource) is the sanctioned pattern and is
// not listed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true,
	"Int31": true, "Int31n": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "N": true,
	"Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true,
}

func checkDeterminism(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		imports := importNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgCall(call, imports, "time"); ok && wallClockFuncs[name] {
				out = append(out, p.finding(call.Pos(), "time.%s reads the wall clock; algorithms must consume internal/clock", name))
			}
			if name, ok := pkgCall(call, imports, "math/rand", "math/rand/v2"); ok && globalRandFuncs[name] {
				out = append(out, p.finding(call.Pos(), "rand.%s draws from the global source; use a seeded rand.New generator", name))
			}
			return true
		})
	}
	return out
}
