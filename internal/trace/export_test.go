package trace

// NewRecorderOfCapacity sizes each ring, for the external tests that join
// through a recorder.
func NewRecorderOfCapacity(spansPerWorker int) *Recorder { return newRecorder(spansPerWorker) }

// DefaultSpans is each ring's capacity from NewRecorder.
const DefaultSpans = defaultSpans
