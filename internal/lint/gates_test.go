package lint

import (
	"math/rand"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestParseBCEOutput pins the check_bce output contract: only Found
// IsInBounds/IsSliceInBounds lines parse, duplicates from multiple build
// units collapse, and escape/inline chatter on the same stream is ignored.
func TestParseBCEOutput(t *testing.T) {
	out := strings.Join([]string{
		"# repro/internal/hashtable",
		"internal/hashtable/batch.go:107:12: Found IsInBounds",
		"internal/hashtable/batch.go:107:22: Found IsInBounds",
		"internal/hashtable/batch.go:121:10: Found IsSliceInBounds",
		"internal/hashtable/batch.go:107:12: leaking param: t",
		"internal/hashtable/batch.go:140:6: can inline (*Table).Insert",
		"# repro/internal/hashtable [repro/internal/hashtable.test]",
		"internal/hashtable/batch.go:107:12: Found IsInBounds",
	}, "\n")
	got := parseBCEOutput(out)
	want := []diagLine{
		{File: "internal/hashtable/batch.go", Line: 107, Col: 12, Msg: "IsInBounds"},
		{File: "internal/hashtable/batch.go", Line: 107, Col: 22, Msg: "IsInBounds"},
		{File: "internal/hashtable/batch.go", Line: 121, Col: 10, Msg: "IsSliceInBounds"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseBCEOutput = %+v, want %+v", got, want)
	}
}

// TestParseInlineOutput pins the inliner-verdict contract: can-inline
// verdicts with and without costs, cost-exceeds-budget refusals with the
// cost and budget split out, other refusals with the raw reason, and
// duplicate collapse.
func TestParseInlineOutput(t *testing.T) {
	out := strings.Join([]string{
		"# repro/internal/hashtable",
		"internal/hashtable/hashtable.go:42:6: can inline Hash with cost 21 as: func(tuple.Key, uint32) uint32 { ... }",
		"internal/hashtable/hashtable.go:90:6: can inline (*Table).Reset",
		"internal/hashtable/batch.go:200:6: cannot inline (*Table).InsertHashed: function too complex: cost 119 exceeds budget 80",
		"internal/hashtable/batch.go:219:6: cannot inline (*Table).spill: marked go:noinline",
		"internal/hashtable/batch.go:200:17: leaking param: t",
		"# repro/internal/hashtable [repro/internal/hashtable.test]",
		"internal/hashtable/hashtable.go:42:6: can inline Hash with cost 21 as: func(tuple.Key, uint32) uint32 { ... }",
	}, "\n")
	got := parseInlineOutput(out)
	want := []inlineDiag{
		{File: "internal/hashtable/hashtable.go", Line: 42, Col: 6, Name: "Hash", CanInline: true, Cost: 21},
		{File: "internal/hashtable/hashtable.go", Line: 90, Col: 6, Name: "(*Table).Reset", CanInline: true},
		{File: "internal/hashtable/batch.go", Line: 200, Col: 6, Name: "(*Table).InsertHashed", Cost: 119, Budget: 80, Reason: "function too complex: cost 119 exceeds budget 80"},
		{File: "internal/hashtable/batch.go", Line: 219, Col: 6, Name: "(*Table).spill", Reason: "marked go:noinline"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseInlineOutput = %+v, want %+v", got, want)
	}
}

// buildFixtureDiag compiles one testdata package with the shared gate
// flags and returns its combined diagnostics plus the loaded program.
func buildFixtureDiag(t *testing.T, pkgdir string) (string, *Program) {
	t.Helper()
	root := repoRoot(t)
	cmd := exec.Command("go", "build", "-gcflags="+buildDiagFlags, "./internal/lint/testdata/src/"+pkgdir)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkgdir, err, out)
	}
	pkg, err := Load(filepath.Join(root, "internal", "lint", "testdata", "src", pkgdir), root, false)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), NewProgram(root, []*Package{pkg})
}

// kept is what Run does to one rule's raw findings: stamp, drop the
// allowed, sort.
func kept(prog *Program, r Rule, found []Finding) []Finding {
	out := prog.keep(r, found)
	sortFindings(out)
	return out
}

// TestBCEGateFixture is the positive control: exactly HotUnproven's two
// in-loop bounds checks survive. HotProven is fully eliminated, the
// straight-line check in HotSetupCheck passes the loop-only scope, and
// HotAllowed's function-scope allow covers its data-dependent loop.
func TestBCEGateFixture(t *testing.T) {
	out, prog := buildFixtureDiag(t, "bcefixture")
	spans := prog.hotSpans()
	if len(spans) != 4 {
		t.Fatalf("expected 4 hotpath spans in bcefixture, got %+v", spans)
	}
	findings := kept(prog, bceGate, matchBounds(prog.Root, parseBCEOutput(out), spans))
	if len(findings) != 2 {
		t.Fatalf("expected exactly 2 bcegate findings, got %+v", findings)
	}
	for _, f := range findings {
		if !strings.Contains(f.Msg, "HotUnproven") || !strings.Contains(f.Msg, "IsInBounds") {
			t.Errorf("finding does not name the unproven hotpath: %s", f.Msg)
		}
		if filepath.Base(f.Pos.Filename) != "bcefixture.go" {
			t.Errorf("finding in %s, want bcefixture.go", f.Pos.Filename)
		}
	}
}

// TestInlineGateFixture: the refused BigMix fails with its cost and the
// over-by delta, SmallMix passes, and BigMixAllowed's final-doc-line allow
// suppresses the refusal.
func TestInlineGateFixture(t *testing.T) {
	out, prog := buildFixtureDiag(t, "inlfixture")
	spans := inlineSpans(prog)
	if len(spans) != 3 {
		t.Fatalf("expected 3 inline spans in inlfixture, got %+v", spans)
	}
	findings := kept(prog, inlineGate, matchInline(prog.Root, parseInlineOutput(out), spans))
	if len(findings) != 1 {
		t.Fatalf("expected exactly 1 inlinegate finding, got %+v", findings)
	}
	msg := findings[0].Msg
	if !strings.Contains(msg, "BigMix") || !strings.Contains(msg, "exceeds budget 80") || !strings.Contains(msg, "over by") {
		t.Errorf("refusal message lacks cost/budget delta: %s", msg)
	}
}

// TestBCEGateRepoTree runs the gate over the module: every hotpath loop is
// either proven bounds-check free or carries a written
// data-dependent-bound contract.
func TestBCEGateRepoTree(t *testing.T) {
	for _, f := range run(t, loadTree(t), bceGate) {
		t.Errorf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
	}
}

// TestInlineGateRepoTree: every //iawj:inline contract in the tree holds.
func TestInlineGateRepoTree(t *testing.T) {
	prog := loadTree(t)
	for _, f := range run(t, prog, inlineGate) {
		t.Errorf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
	}
	// The tree must actually carry contracts — the gate watching nothing
	// would pass vacuously.
	if spans := inlineSpans(prog); len(spans) == 0 {
		t.Error("no //iawj:inline contracts in the tree; inlinegate guards nothing")
	}
}

// TestGateMatchersOrderInsensitive: shuffling diagnostic and span order
// must not change the (sorted) findings of either matcher — the driver
// output is byte-stable no matter how the compiler orders its build units.
func TestGateMatchersOrderInsensitive(t *testing.T) {
	outB, progB := buildFixtureDiag(t, "bcefixture")
	bceDiags := parseBCEOutput(outB)
	bceSpans := progB.hotSpans()
	wantB := kept(progB, bceGate, matchBounds(progB.Root, bceDiags, bceSpans))

	outI, progI := buildFixtureDiag(t, "inlfixture")
	inlDiags := parseInlineOutput(outI)
	inlSpans := inlineSpans(progI)
	wantI := kept(progI, inlineGate, matchInline(progI.Root, inlDiags, inlSpans))

	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := append([]diagLine(nil), bceDiags...)
		sb := append([]hotSpan(nil), bceSpans...)
		rng.Shuffle(len(db), func(i, j int) { db[i], db[j] = db[j], db[i] })
		rng.Shuffle(len(sb), func(i, j int) { sb[i], sb[j] = sb[j], sb[i] })
		if got := kept(progB, bceGate, matchBounds(progB.Root, db, sb)); !reflect.DeepEqual(got, wantB) {
			t.Errorf("seed %d: shuffled bcegate findings differ:\ngot  %+v\nwant %+v", seed, got, wantB)
		}
		di := append([]inlineDiag(nil), inlDiags...)
		si := append([]inlineSpan(nil), inlSpans...)
		rng.Shuffle(len(di), func(i, j int) { di[i], di[j] = di[j], di[i] })
		rng.Shuffle(len(si), func(i, j int) { si[i], si[j] = si[j], si[i] })
		if got := kept(progI, inlineGate, matchInline(progI.Root, di, si)); !reflect.DeepEqual(got, wantI) {
			t.Errorf("seed %d: shuffled inlinegate findings differ:\ngot  %+v\nwant %+v", seed, got, wantI)
		}
	}
}

// TestGatesCrossCwd: the gates anchor everything to the module root they
// are handed, so running from an unrelated working directory yields
// byte-identical findings.
func TestGatesCrossCwd(t *testing.T) {
	out, prog := buildFixtureDiag(t, "bcefixture")
	want := kept(prog, bceGate, matchBounds(prog.Root, parseBCEOutput(out), prog.hotSpans()))
	if len(want) == 0 {
		t.Fatal("expected seeded findings")
	}
	t.Chdir(t.TempDir())
	got := kept(prog, bceGate, matchBounds(prog.Root, parseBCEOutput(out), prog.hotSpans()))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings differ across cwd:\ngot  %+v\nwant %+v", got, want)
	}
	for _, f := range got {
		if !filepath.IsAbs(f.Pos.Filename) {
			t.Errorf("finding path %q is not absolute (module-root anchored)", f.Pos.Filename)
		}
	}
	// The diagnostics build itself must also be cwd-independent: it runs in
	// Root, not in the process working directory.
	if prog.buildDiag(); prog.diagErr != nil {
		t.Fatalf("diagnostics build from foreign cwd: %v", prog.diagErr)
	}
}

// TestSharedBuildDiagRunsOnce: all three gates on one program trigger
// exactly one compile (the tree program is shared, so the count also
// covers every earlier test that linted the tree).
func TestSharedBuildDiagRunsOnce(t *testing.T) {
	prog := loadTree(t)
	run(t, prog, escapeGate, bceGate, inlineGate)
	if prog.diagRuns != 1 {
		t.Errorf("diagnostics build ran %d times across the three gates, want 1", prog.diagRuns)
	}
}
