package joins

import (
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
