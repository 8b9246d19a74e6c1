package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from current output")

const fixture = "../../internal/lint/testdata/src/fixture"

// TestGolden pins the CLI surface: running the driver over the seeded
// fixture package must produce byte-identical diagnostics and exit 1.
func TestGolden(t *testing.T) {
	var out, errs bytes.Buffer
	code := run([]string{fixture}, &out, &errs)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errs.String())
	}
	if *update {
		if err := os.WriteFile("testdata/golden.txt", out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(golden) {
		t.Errorf("output differs from golden (re-run with -update after reviewing):\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
	}
	if !strings.Contains(errs.String(), "finding(s)") {
		t.Errorf("stderr summary missing, got %q", errs.String())
	}
}

// TestEachRuleTripsNonZero is the acceptance criterion: every rule, run
// alone, must exit non-zero on its seeded fixture violation. The three
// gates are absent because their positive controls live outside the
// fixture package (internal/lint's Test*GateFixture build escfixture,
// bcefixture and inlfixture with the gate flags); `go build ./...` never
// compiles testdata.
func TestEachRuleTripsNonZero(t *testing.T) {
	for _, rule := range []string{"determinism", "lockdiscipline", "goroutineleak", "hotpathalloc", "panicpolicy", "tracering", "lockorder", "falseshare", "guardinfer", "atomicmix", "goescape", "maporder", "allow"} {
		t.Run(rule, func(t *testing.T) {
			var out, errs bytes.Buffer
			code := run([]string{"-rules", rule, fixture}, &out, &errs)
			if code != 1 {
				t.Errorf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errs.String())
			}
			if !strings.Contains(out.String(), "["+rule+"]") {
				t.Errorf("no %s finding in output:\n%s", rule, out.String())
			}
		})
	}
}

// TestRepoTreeExitsZero is the other acceptance criterion: the real tree
// (testdata excluded by the walk) must lint clean.
func TestRepoTreeExitsZero(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"../../..."}, &out, &errs); code != 0 {
		t.Errorf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errs.String())
	}
}

// TestUnknownRule rejects typos instead of silently linting nothing, and
// must name the available rules so the caller need not run -list.
func TestUnknownRule(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-rules", "nosuchrule", fixture}, &out, &errs); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errs.String(), "unknown rule") {
		t.Errorf("stderr = %q, want unknown-rule error", errs.String())
	}
	for _, rule := range []string{"determinism", "hotpathalloc", "lockorder", "falseshare", "guardinfer", "atomicmix", "goescape", "maporder", "escapegate", "bcegate", "inlinegate"} {
		if !strings.Contains(errs.String(), rule) {
			t.Errorf("unknown-rule error does not list %s: %q", rule, errs.String())
		}
	}
}

// TestListRules keeps -list in sync with the registry.
func TestListRules(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-list"}, &out, &errs); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, rule := range []string{"determinism", "lockdiscipline", "goroutineleak", "hotpathalloc", "panicpolicy", "tracering", "lockorder", "falseshare", "guardinfer", "atomicmix", "goescape", "maporder", "escapegate", "bcegate", "inlinegate", "allow"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list output missing %s:\n%s", rule, out.String())
		}
	}
}

// TestExplain pins the -explain surface: a known rule prints its contract
// (golden, reviewed like any diagnostic text) and exits 0; an unknown rule
// is a usage error that names the catalogue, like -rules.
func TestExplain(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-explain", "maporder"}, &out, &errs); code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, errs.String())
	}
	if *update {
		if err := os.WriteFile("testdata/explain_maporder.txt", out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		golden, err := os.ReadFile("testdata/explain_maporder.txt")
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != string(golden) {
			t.Errorf("-explain output differs from golden (re-run with -update after reviewing):\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
		}
	}
	// Every catalogued rule must explain itself — a rule without a
	// contract paragraph is a rule reviewers cannot apply allows against.
	for _, rule := range []string{"bcegate", "inlinegate", "escapegate", "hotpathalloc", "goescape", "lockorder", "goroutineleak", "allow"} {
		out.Reset()
		errs.Reset()
		if code := run([]string{"-explain", rule}, &out, &errs); code != 0 {
			t.Errorf("-explain %s exit = %d, want 0", rule, code)
		}
		if !strings.Contains(out.String(), rule+":") || len(out.String()) < 100 {
			t.Errorf("-explain %s output lacks the contract paragraph:\n%s", rule, out.String())
		}
	}
	out.Reset()
	errs.Reset()
	if code := run([]string{"-explain", "nosuchrule"}, &out, &errs); code != 2 {
		t.Errorf("-explain nosuchrule exit = %d, want 2", code)
	}
	if !strings.Contains(errs.String(), "unknown rule") || !strings.Contains(errs.String(), "bcegate") {
		t.Errorf("unknown-rule error must name the catalogue, got %q", errs.String())
	}
}
