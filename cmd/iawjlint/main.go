// Command iawjlint runs the repo-specific static analyzers over package
// directories and reports findings with file:line positions. It is the
// lint stage of the CI gate (scripts/check.sh): a non-zero exit means at
// least one finding survived the allowlists.
//
// Usage:
//
//	iawjlint [flags] [pattern ...]
//
// Patterns are directories; a trailing /... walks recursively (testdata,
// vendor, and hidden directories are skipped, mirroring the go tool).
// With no pattern, ./... is assumed.
//
// Flags:
//
//	-rules r1,r2       run only the named rules
//	-tests             also lint _test.go files
//	-list              print the available rules and exit
//	-explain RULE      print the rule's contract (what it proves, why, and
//	                   the sanctioned escape hatches) and exit
//
// Every rule is one row of lint.Rules and checks the resolved packages as
// one program: the per-package AST rules, the whole-program rules
// (lockorder, falseshare, guardinfer, atomicmix, goescape, maporder), and
// the build-diagnostics gates (escapegate, bcegate, inlinegate), which
// share one `go build -gcflags="-m=2 -d=ssa/check_bce/debug=1"` run over
// the module and anchor compiler escape, bounds-check, and inliner
// verdicts to //iawj:hotpath and //iawj:inline spans.
//
// Escape hatches: a `//lint:allow <rule> <reason>` comment on (or directly
// above) the offending line, or the per-rule path allowlist baked into
// internal/lint for sanctioned packages such as internal/clock. See
// LINTING.md for the rule catalogue.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the driver and returns the process exit code: 0 clean,
// 1 findings, 2 usage or load errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iawjlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated rule names to run (default: all)")
	tests := fs.Bool("tests", false, "also lint _test.go files")
	list := fs.Bool("list", false, "print the available rules and exit")
	explain := fs.String("explain", "", "print the named rule's contract and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "iawjlint: %v\n", err)
		return 2
	}
	if *list {
		for _, r := range lint.Rules {
			fmt.Fprintf(stdout, "%-16s %s\n", r.Name, r.Doc)
		}
		return 0
	}
	if *explain != "" {
		r, err := findRule(*explain)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s: %s\n\n%s\n", r.Name, r.Doc, r.Contract)
		return 0
	}
	selected, err := selectRules(*rules)
	if err != nil {
		return fail(err)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	root := moduleRoot(cwd)
	dirs, err := resolve(patterns, cwd)
	if err != nil {
		return fail(err)
	}
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := lint.Load(dir, root, *tests)
		if err != nil {
			return fail(err)
		}
		pkgs = append(pkgs, pkg)
	}
	findings, err := lint.Run(lint.NewProgram(root, pkgs), selected)
	if err != nil {
		return fail(err)
	}
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d:%d: %s [%s]: %s\n",
			relPath(cwd, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Sev, f.Rule, f.Msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "iawjlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// findRule looks one name up in the rule table. An unknown name is a
// usage error and carries the table's names so the caller does not have
// to run -list separately.
func findRule(name string) (lint.Rule, error) {
	var names []string
	for _, r := range lint.Rules {
		if r.Name == name {
			return r, nil
		}
		names = append(names, r.Name)
	}
	return lint.Rule{}, fmt.Errorf("unknown rule %q; available rules: %s", name, strings.Join(names, ", "))
}

// selectRules resolves the -rules flag against the rule table; empty
// selects every row.
func selectRules(rules string) ([]lint.Rule, error) {
	if rules == "" {
		return lint.Rules, nil
	}
	var selected []lint.Rule
	seen := map[string]bool{}
	for _, name := range strings.Split(rules, ",") {
		name = strings.TrimSpace(name)
		if seen[name] {
			continue
		}
		seen[name] = true
		r, err := findRule(name)
		if err != nil {
			return nil, err
		}
		selected = append(selected, r)
	}
	return selected, nil
}

// resolve expands patterns into package directories.
func resolve(patterns []string, cwd string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "." || pat == "" {
				pat = cwd
			}
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(cwd, pat)
		}
		info, err := os.Stat(pat)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("%s is not a directory", pat)
		}
		if recursive {
			walked, err := lint.Walk(pat)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
		} else {
			add(pat)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// moduleRoot walks up from dir to the directory containing go.mod,
// falling back to dir itself.
func moduleRoot(dir string) string {
	d := dir
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}

// relPath renders a path relative to the working directory when possible,
// keeping driver output stable across checkouts.
func relPath(cwd, path string) string {
	rel, err := filepath.Rel(cwd, path)
	if err != nil {
		return path
	}
	return filepath.ToSlash(rel)
}
