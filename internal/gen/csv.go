package gen

// CSV import/export so externally obtained datasets (e.g. the paper's
// original Stock/Rovio/YSB/DEBS inputs, which are not redistributable)
// can be plugged into the harness, and synthesized workloads can be
// inspected with external tools.

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/tuple"
)

// WriteCSV writes a relation as "ts,key,payload" rows with a header.
func WriteCSV(w io.Writer, rel tuple.Relation) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "ts,key,payload"); err != nil {
		return err
	}
	for _, t := range rel {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d\n", t.TS, t.Key, t.Payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readCSV parses a relation from "ts,key,payload" rows. A header row is
// detected and skipped. Tuples must be time ordered (they are validated,
// not silently re-sorted, so accidental misordering surfaces).
func readCSV(r io.Reader) (tuple.Relation, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = 3
	var rel tuple.Relation
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("gen: csv line %d: %w", line+1, err)
		}
		line++
		if line == 1 && rec[0] == "ts" {
			continue // header
		}
		ts, err1 := strconv.ParseInt(rec[0], 10, 64)
		key, err2 := strconv.ParseInt(rec[1], 10, 32)
		pay, err3 := strconv.ParseInt(rec[2], 10, 32)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("gen: csv line %d: malformed row %v", line, rec)
		}
		rel = append(rel, tuple.Tuple{TS: ts, Key: int32(key), Payload: int32(pay)})
	}
	if !rel.SortedByTS() {
		return nil, fmt.Errorf("gen: csv input is not time ordered")
	}
	return rel, nil
}

// LoadCSVWorkload reads a workload from two CSV files (one per stream),
// windowed as FromRelations says.
func LoadCSVWorkload(name, pathR, pathS string) (Workload, error) {
	r, err := loadCSVFile(pathR)
	if err != nil {
		return Workload{}, err
	}
	s, err := loadCSVFile(pathS)
	if err != nil {
		return Workload{}, err
	}
	return FromRelations(name, r, s), nil
}

// FromRelations is the workload of two recorded streams: its window ends
// at the later stream's last timestamp, and streams whose timestamps are
// all zero are data at rest.
func FromRelations(name string, r, s tuple.Relation) Workload {
	w := Workload{Name: name, R: r, S: s, WindowMs: max(r.MaxTS(), s.MaxTS())}
	w.AtRest = w.WindowMs == 0
	return w
}

func loadCSVFile(path string) (tuple.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rel, err := readCSV(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rel, nil
}
