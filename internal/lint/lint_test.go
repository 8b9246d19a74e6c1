package lint

import (
	"bufio"
	"fmt"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// fixtureDir is the package seeded with one violation of every rule.
func fixtureDir(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "src", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// repoRoot walks up to go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// loadFixture wraps the fixture package as a one-package program.
func loadFixture(t *testing.T) *Program {
	t.Helper()
	root := repoRoot(t)
	p, err := Load(fixtureDir(t), root, false)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("fixture package is empty")
	}
	return NewProgram(root, []*Package{p})
}

// loadTree loads every package of the repository as one program.
func loadTree(t *testing.T) *Program {
	t.Helper()
	root := repoRoot(t)
	dirs, err := Walk(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := Load(dir, root, false)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return NewProgram(root, pkgs)
}

// run applies the rules and fails the test on a diagnostics-build error.
func run(t *testing.T, prog *Program, rules ...Rule) []Finding {
	t.Helper()
	found, err := Run(prog, rules)
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// checkFixtureTable runs each rule alone over the fixture package: it must
// report exactly the `// want <rule>` markers of its fixture file — no
// misses, no extras.
func checkFixtureTable(t *testing.T, rules ...Rule) {
	prog := loadFixture(t)
	for _, rule := range rules {
		file := rule.Name + ".go"
		t.Run(rule.Name, func(t *testing.T) {
			var got []int
			for _, f := range run(t, prog, rule) {
				if filepath.Base(f.Pos.Filename) != file {
					continue
				}
				if f.Rule != rule.Name || f.Sev != rule.Sev {
					t.Errorf("finding carries %s [%s], want %s [%s]", f.Sev, f.Rule, rule.Sev, rule.Name)
				}
				got = append(got, f.Pos.Line)
			}
			sort.Ints(got)
			want := wantLines(t, file, rule.Name)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no // want %s markers", file, rule.Name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s findings at lines %v, want %v", rule.Name, got, want)
			}
		})
	}
}

var wantRe = regexp.MustCompile(`// want ([a-z]+)`)

// wantLines returns the marker lines for one rule in one fixture file.
func wantLines(t *testing.T, file, rule string) []int {
	t.Helper()
	f, err := os.Open(filepath.Join(fixtureDir(t), file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []int
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
			if m[1] == rule {
				lines = append(lines, n)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestAnalyzersAgainstFixtures is the table-driven core for the rules that
// look at one package at a time.
func TestAnalyzersAgainstFixtures(t *testing.T) {
	checkFixtureTable(t, determinism, lockDiscipline, goroutineLeak, hotPathAlloc, panicPolicy, traceRing)
}

// TestAllowEscapeHatch checks both //lint:allow placements suppress a
// finding, while an allow for the wrong rule and an allow with no reason
// do not — and the reasonless one is itself reported, at the comment.
func TestAllowEscapeHatch(t *testing.T) {
	prog := loadFixture(t)
	got := map[string][]int{}
	for _, f := range run(t, prog, determinism, allowReason) {
		if filepath.Base(f.Pos.Filename) == "allow.go" {
			got[f.Rule] = append(got[f.Rule], f.Pos.Line)
		}
	}
	want := wantLines(t, "allow.go", "determinism")
	if len(want) != 1 {
		t.Fatalf("allow.go should carry one // want determinism marker, has %v", want)
	}
	if !reflect.DeepEqual(got["determinism"], want) {
		t.Errorf("allow.go determinism findings at lines %v, want only the wrong-rule, reasonless-allow line %v", got["determinism"], want)
	}
	// The reasonless allow sits directly above that line.
	if bare := []int{want[0] - 1}; !reflect.DeepEqual(got["allow"], bare) {
		t.Errorf("allow.go allow findings at lines %v, want the reasonless comment at %v", got["allow"], bare)
	}
}

// TestPathAllowlist checks a whole package is exempted per rule:
// internal/clock wraps time.Now by design, so the raw check finds reads
// there and Run drops every one.
func TestPathAllowlist(t *testing.T) {
	root := repoRoot(t)
	clock, err := Load(filepath.Join(root, "internal", "clock"), root, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(checkDeterminism(clock)) == 0 {
		t.Fatal("internal/clock reads no wall clock; the allowlist is tested against nothing")
	}
	if got := run(t, NewProgram(root, []*Package{clock}), determinism); len(got) != 0 {
		t.Errorf("path-allowlisted package still has %d findings: %+v", len(got), got)
	}
}

// TestRepoTreeIsClean is the in-process CI gate: the real tree must lint
// clean under the rules that look at one package at a time, so any new
// violation fails go test, not just scripts/check.sh.
func TestRepoTreeIsClean(t *testing.T) {
	prog := loadTree(t)
	for _, f := range run(t, prog, determinism, lockDiscipline, goroutineLeak, hotPathAlloc, panicPolicy, traceRing, allowReason) {
		t.Errorf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
	}
}

// TestWalkSkipsTestdata guards the ./... semantics the gate depends on:
// fixture violations must not leak into a tree walk.
func TestWalkSkipsTestdata(t *testing.T) {
	dirs, err := Walk(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if filepath.Base(filepath.Dir(d)) == "testdata" || filepath.Base(d) == "testdata" {
			t.Errorf("Walk returned testdata directory %s", d)
		}
		if regexp.MustCompile(`(^|/)testdata(/|$)`).MatchString(filepath.ToSlash(d)) {
			t.Errorf("Walk returned path under testdata: %s", d)
		}
	}
	if len(dirs) < 10 {
		t.Errorf("Walk found only %d package dirs, expected the full tree", len(dirs))
	}
}

// TestSeverityString pins the report vocabulary used by the golden file.
func TestSeverityString(t *testing.T) {
	for sev, want := range map[Severity]string{Error: "error", Warn: "warn"} {
		if got := fmt.Sprint(sev); got != want {
			t.Errorf("Severity(%d) = %q, want %q", sev, got, want)
		}
	}
}

// TestSortFindingsDeterministic shuffles a finding list with position and
// rule collisions through several seeds: sortFindings must always land on
// the identical total order, or the golden churns run to run.
func TestSortFindingsDeterministic(t *testing.T) {
	base := []Finding{
		{Rule: "lockorder", Sev: Error, Msg: "cycle a->b", Pos: token.Position{Filename: "a.go", Line: 10, Column: 2}},
		{Rule: "lockorder", Sev: Error, Msg: "cycle b->a", Pos: token.Position{Filename: "a.go", Line: 10, Column: 2}},
		{Rule: "guardinfer", Sev: Error, Msg: "unguarded", Pos: token.Position{Filename: "a.go", Line: 10, Column: 2}},
		{Rule: "atomicmix", Sev: Error, Msg: "mixed", Pos: token.Position{Filename: "a.go", Line: 10, Column: 9}},
		{Rule: "panicpolicy", Sev: Warn, Msg: "bare panic", Pos: token.Position{Filename: "a.go", Line: 3, Column: 1}},
		{Rule: "falseshare", Sev: Warn, Msg: "hot line", Pos: token.Position{Filename: "b.go", Line: 1, Column: 1}},
		{Rule: "tracering", Sev: Error, Msg: "ring", Pos: token.Position{Filename: "b.go", Line: 1, Column: 1}},
	}
	want := append([]Finding(nil), base...)
	sortFindings(want)
	for seed := int64(0); seed < 8; seed++ {
		got := append([]Finding(nil), base...)
		rand.New(rand.NewSource(seed)).Shuffle(len(got), func(i, j int) {
			got[i], got[j] = got[j], got[i]
		})
		sortFindings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: shuffled input sorted to a different order:\ngot  %+v\nwant %+v", seed, got, want)
		}
	}
}
