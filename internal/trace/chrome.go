package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/metrics"
)

// ChromeEvent is one complete ("ph":"X") event of the Chrome trace-event
// format, the subset Perfetto and chrome://tracing load directly. Ts and
// Dur are microseconds (the format's native unit).
type ChromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	PID  int             `json:"pid"`
	TID  int             `json:"tid"`
	Args ChromeEventArgs `json:"args"`
}

// ChromeEventArgs carries the span payload visible in the trace viewer's
// selection panel.
type ChromeEventArgs struct {
	Algorithm string `json:"algorithm"`
	Phase     string `json:"phase"`
	Tuples    int64  `json:"tuples"`
}

// ChromeTrace is the top-level JSON-object form of the trace-event format.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromePID groups all workers under one process row in the viewer.
const chromePID = 1

// ChromeEvents converts a span snapshot into trace events, one per phase
// a span renders (layout). alg resolves span run indices to names
// (Recorder.AlgName).
func ChromeEvents(spans []Span, alg func(int32) string) []ChromeEvent {
	events := make([]ChromeEvent, 0, len(spans))
	for i := range spans {
		s := &spans[i]
		name := alg(s.Alg)
		layout(s, func(p metrics.Phase, at int64) {
			events = append(events, ChromeEvent{
				Name: p.String(),
				Cat:  name,
				Ph:   "X",
				Ts:   float64(at) / 1e3,
				Dur:  float64(s.Ns[p]) / 1e3,
				PID:  chromePID,
				TID:  int(s.TID),
				Args: ChromeEventArgs{Algorithm: name, Phase: p.String(), Tuples: s.Tuples[p]},
			})
		})
	}
	return events
}

// WriteChrome renders the recorder's spans as Chrome trace-event JSON.
func WriteChrome(w io.Writer, r *Recorder) error {
	if r == nil {
		return fmt.Errorf("trace: nil recorder")
	}
	return json.NewEncoder(w).Encode(ChromeTrace{
		TraceEvents:     ChromeEvents(r.Snapshot(), r.AlgName),
		DisplayTimeUnit: "ms",
	})
}

// ReadChrome parses Chrome trace-event JSON produced by WriteChrome (or
// any object-form trace). It backs the validator CLI and the CI smoke.
func ReadChrome(rd io.Reader) (ChromeTrace, error) {
	var ct ChromeTrace
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&ct); err != nil {
		return ChromeTrace{}, fmt.Errorf("trace: invalid chrome trace JSON: %w", err)
	}
	return ct, nil
}
