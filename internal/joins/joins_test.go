package joins

import (
	"go/build"
	"slices"
	"strings"
	"testing"
)

// TestTable pins the one algorithm table: Table 2's names in Table 2's
// order, split lazy then eager, every name (and the baseline's) building
// the implementation that reports it, and nothing else answering.
func TestTable(t *testing.T) {
	table2 := []string{"NPJ", "PRJ", "MWAY", "MPASS", "SHJ_JM", "SHJ_JB", "PMJ_JM", "PMJ_JB"}
	if got := All(); !slices.Equal(got, table2) {
		t.Fatalf("All() = %v, want Table 2 order %v", got, table2)
	}
	if lazy, eager := Lazy(), Eager(); !slices.Equal(lazy, table2[:4]) || !slices.Equal(eager, table2[4:]) {
		t.Fatalf("Lazy() = %v, Eager() = %v; want %v and %v", lazy, eager, table2[:4], table2[4:])
	}
	for _, name := range append(All(), "HANDSHAKE") {
		alg, err := New(name)
		if err != nil || alg.Name() != name {
			t.Errorf("New(%q) = %v, %v; want the algorithm of that name", name, alg, err)
		}
	}
	// NPJ_LF named the lock-free build-table ablation retired in PR 14.
	for _, name := range []string{"", "NOPE", "npj", "NPJ_LF"} {
		if alg, err := New(name); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Errorf("New(%q) = %v, %v; want the unknown-algorithm error", name, alg, err)
		}
	}
}

// TestAlgorithmsDoNotImportThePool pins the boundary the run frame keeps:
// the algorithms take pooled state through core.ExecContext, which
// records every take and gives it all back when the run ends, so no
// algorithm can hold, or give back, what the run does not see. The
// packages' tests may still build pools of their own.
func TestAlgorithmsDoNotImportThePool(t *testing.T) {
	for _, dir := range []string{"../lazy", "../eager"} {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !slices.Contains(pkg.Imports, "repro/internal/core"):
			t.Errorf("%s: package %s imports %v, not core: not an algorithm package", dir, pkg.Name, pkg.Imports)
		case slices.Contains(pkg.Imports, "repro/internal/pool"):
			t.Errorf("%s imports repro/internal/pool; take pooled state through core.ExecContext", dir)
		}
	}
}
