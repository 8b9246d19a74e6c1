package main

import (
	"encoding/json"
	"os"
	"slices"
)

// span is one call the harness made into a layer during a traced run.
// Parent is the ID of the span that caused it (0 for a root); IDs start
// at 1. Times are nanoseconds since process start.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Column   string `json:"column,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Tuples   int64  `json:"tuples"`
	// SelfNs is filled in when the log is written; see selfNs.
	SelfNs int64 `json:"self_ns"`
}

// spanLog keeps the spans of a traced run in memory until it ends. It is
// used from the harness goroutine only; the untraced run has none.
type spanLog struct {
	workload string
	spans    []span
}

// begin opens a span and returns its ID.
func (l *spanLog) begin(parent int, name, column string, tuples int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Workload: l.workload, Column: column,
		StartNs: proc.ElapsedNs(), Tuples: tuples,
	})
	return id
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) int64 {
	s := &l.spans[id-1]
	s.EndNs = proc.ElapsedNs()
	return s.EndNs - s.StartNs
}

// selfNs returns, per span (index ID-1), its duration minus the part of
// that interval its child spans cover. Overlapping children are counted
// once and a child is clipped to its parent, so a self time is never
// negative and the self times of a tree sum to its root's duration.
func selfNs(spans []span) []int64 {
	children := make([][]span, len(spans)+1)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make([]int64, len(spans))
	for i, p := range spans {
		kids := children[p.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.StartNs - b.StartNs) })
		covered, edge := int64(0), p.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, p.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = p.EndNs - p.StartNs - covered
	}
	return out
}

// write dumps the spans, each with its self time, as one JSON document.
func (l *spanLog) write(path string) error {
	for i, ns := range selfNs(l.spans) {
		l.spans[i].SelfNs = ns
	}
	buf, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
