package gen

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV hardens the CSV importer against malformed external
// datasets: it must either parse or error, never panic, and parsed
// output must round-trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("ts,key,payload\n0,1,2\n")
	f.Add("0,1,2\n5,4,3\n")
	f.Add("ts,key\n")
	f.Add("a,b,c\n")
	f.Add("9999999999999999999,1,1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		rel, err := readCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		if !rel.SortedByTS() {
			t.Fatalf("accepted unsorted relation: %v", rel)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, rel); err != nil {
			t.Fatal(err)
		}
		again, err := readCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(again) != len(rel) {
			t.Fatalf("round trip lost tuples: %d vs %d", len(again), len(rel))
		}
	})
}
