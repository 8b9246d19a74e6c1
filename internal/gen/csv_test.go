package gen

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	w := Micro(MicroConfig{RateR: 20, RateS: 20, WindowMs: 30, Dupe: 3, Seed: 8})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, w.R); err != nil {
		t.Fatal(err)
	}
	got, err := readCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(w.R) {
		t.Fatalf("round trip lost tuples: %d vs %d", len(got), len(w.R))
	}
	for i := range got {
		if got[i] != w.R[i] {
			t.Fatalf("tuple %d: %v != %v", i, got[i], w.R[i])
		}
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"ts,key\n1,2\n",                  // wrong column count
		"ts,key,payload\na,2,3\n",        // non-numeric
		"ts,key,payload\n5,1,1\n1,2,2\n", // unordered
	}
	for _, c := range cases {
		if _, err := readCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("input %q must be rejected", c)
		}
	}
}

func TestReadCSVWithoutHeader(t *testing.T) {
	rel, err := readCSV(strings.NewReader("0,1,2\n3,4,5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 2 || rel[1].Key != 4 {
		t.Fatalf("parsed %v", rel)
	}
}

func TestLoadCSVWorkload(t *testing.T) {
	dir := t.TempDir()
	w := Micro(MicroConfig{RateR: 10, RateS: 10, WindowMs: 20, Dupe: 2, Seed: 4})
	pathR := filepath.Join(dir, "r.csv")
	pathS := filepath.Join(dir, "s.csv")
	fR, err := os.Create(pathR)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(fR, w.R); err != nil {
		t.Fatal(err)
	}
	fR.Close()
	fS, err := os.Create(pathS)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(fS, w.S); err != nil {
		t.Fatal(err)
	}
	fS.Close()

	loaded, err := LoadCSVWorkload("test", pathR, pathS)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.R) != len(w.R) || len(loaded.S) != len(w.S) {
		t.Fatalf("sizes: %d/%d", len(loaded.R), len(loaded.S))
	}
	if loaded.AtRest {
		t.Fatal("streaming workload misdetected as at rest")
	}
	if loaded.WindowMs == 0 {
		t.Fatal("window not derived")
	}
}

func TestLoadCSVWorkloadAtRest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "static.csv")
	if err := os.WriteFile(path, []byte("0,1,1\n0,2,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := LoadCSVWorkload("static", path, path)
	if err != nil {
		t.Fatal(err)
	}
	if !w.AtRest {
		t.Fatal("all-zero timestamps must be detected as at rest")
	}
}

func TestLoadCSVWorkloadMissingFile(t *testing.T) {
	if _, err := LoadCSVWorkload("x", "/nonexistent/r.csv", "/nonexistent/s.csv"); err == nil {
		t.Fatal("missing file must error")
	}
}
