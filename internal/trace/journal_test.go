package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"runtime"
	rtm "runtime/metrics"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// metricsResultFixture builds a fully populated Result for journal and
// registry tests.
func metricsResultFixture() metrics.Result {
	res := metrics.Result{
		Algorithm:     "SHJ_JM",
		Threads:       4,
		Inputs:        2000,
		Matches:       1500,
		SinkRuns:      300,
		LastMatchMs:   90,
		ThroughputTPM: 22.2,
		LatencyP50Ms:  3,
		LatencyP95Ms:  8,
		LatencyP99Ms:  9,
		LatencyMaxMs:  12,
		PhaseNs:       [6]int64{100, 200, 300, 400, 500, 600},
		WallNs:        1_000_000,
		CPUUtil:       0.8,
		MemPeakBytes:  1 << 20,
	}
	for k := range res.Progress {
		res.Progress[k] = metrics.CumulativePoint{V: 3 * int64(k+1), Frac: float64(k+1) / float64(len(res.Progress))}
	}
	return res
}

func TestEntryOf(t *testing.T) {
	e := EntryOf(metricsResultFixture())
	if e.Schema != JournalSchema || e.Kind != "run" {
		t.Errorf("schema/kind = %q/%q", e.Schema, e.Kind)
	}
	if e.Algorithm != "SHJ_JM" || e.Threads != 4 || e.Inputs != 2000 || e.Matches != 1500 || e.SinkRuns != 300 {
		t.Errorf("identity fields wrong: %+v", e)
	}
	if e.LatencyP99Ms != 9 || e.LatencyMaxMs != 12 {
		t.Errorf("latency fields wrong: %+v", e)
	}
	want := map[string]int64{
		"wait": 100, "partition": 200, "build/sort": 300,
		"merge": 400, "probe": 500, "others": 600,
	}
	for k, v := range want {
		if e.PhaseNs[k] != v {
			t.Errorf("PhaseNs[%q] = %d, want %d", k, e.PhaseNs[k], v)
		}
	}
	if len(e.Progress) != 32 || e.Progress[15].Ms != 48 || e.Progress[15].Frac != 0.5 {
		t.Errorf("progress curve wrong: %+v", e.Progress)
	}
	if e := EntryOf(metrics.Result{}); e.Progress != nil {
		t.Errorf("a run without matches journals a progress curve: %+v", e.Progress)
	}
}

func TestJournalWriterEmitsJSONL(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJournalWriter(&buf)
	if err := jw.Write(metricsResultFixture()); err != nil {
		t.Fatal(err)
	}
	if err := jw.Write(metricsResultFixture()); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var e JournalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		if e.Schema != JournalSchema {
			t.Errorf("line %d schema = %q, want %q", lines, e.Schema, JournalSchema)
		}
	}
	if lines != 2 {
		t.Errorf("got %d lines, want 2", lines)
	}
}

// TestJournalV2RoundTrip writes a header, a run, and window records, then
// parses them back: the schema round-trip the v2 ledger promises.
func TestJournalV2RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJournalWriter(&buf)
	if err := jw.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Write(metricsResultFixture()); err != nil {
		t.Fatal(err)
	}
	if err := jw.WriteWindow(metricsResultFixture(), 0, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := jw.WriteWindow(metricsResultFixture(), 1, 100, 200); err != nil {
		t.Fatal(err)
	}

	j, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if j.Env == nil {
		t.Fatal("header env not parsed")
	}
	want := CurrentEnv()
	if *j.Env != want {
		t.Errorf("env = %+v, want %+v", *j.Env, want)
	}
	if len(j.Runs) != 1 || len(j.Windows) != 2 {
		t.Fatalf("got %d runs, %d windows; want 1, 2", len(j.Runs), len(j.Windows))
	}
	w := j.Windows[1]
	if w.Kind != "window" || w.Window == nil {
		t.Fatalf("window entry malformed: %+v", w)
	}
	if w.Window.ID != 1 || w.Window.StartMs != 100 || w.Window.EndMs != 200 {
		t.Errorf("window identity = %+v, want {1 100 200}", *w.Window)
	}
	if w.Algorithm != "SHJ_JM" || w.Matches != 1500 {
		t.Errorf("window metrics lost: %+v", w)
	}
	if w.PhaseNs["probe"] != 500 {
		t.Errorf("window PhaseNs[probe] = %d, want 500", w.PhaseNs["probe"])
	}
}

// TestJournalStampsRuntimeOnEveryRecord: the writer stamps the runtime on
// every run and window record, read as each is written, and not on the
// header.
func TestJournalStampsRuntimeOnEveryRecord(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJournalWriter(&buf)
	if err := jw.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Write(metricsResultFixture()); err != nil {
		t.Fatal(err)
	}
	if err := jw.WriteWindow(metricsResultFixture(), 0, 0, 100); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], `"runtime"`) {
		t.Errorf("the header carries a runtime sample:\n%s", buf.String())
	}
	j, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	run, win := j.Runs[0], j.Windows[0]
	for _, e := range []JournalEntry{run, win} {
		if e.Runtime == nil {
			t.Fatalf("%s record carries no runtime sample", e.Kind)
		}
		if e.Runtime.Goroutines < 1 || e.Runtime.HeapLiveBytes <= 0 || e.Runtime.AtNs <= 0 {
			t.Errorf("%s record's runtime sample is not a reading: %+v", e.Kind, *e.Runtime)
		}
	}
	if win.Runtime.AtNs < run.Runtime.AtNs {
		t.Errorf("at_ns went backwards: run %d, then window %d", run.Runtime.AtNs, win.Runtime.AtNs)
	}
}

// TestJournalReadsRuntime: one read fills every field a running Go
// process has a non-zero value for.
func TestJournalReadsRuntime(t *testing.T) {
	jw := NewJournalWriter(io.Discard)
	runtime.GC()
	rs := jw.readRuntime()
	if rs.Goroutines < 1 || rs.HeapLiveBytes <= 0 || rs.GCCycles < 1 || rs.AtNs < 0 {
		t.Errorf("runtime read = %+v, want goroutines, heap and a GC cycle", rs)
	}
}

// TestRuntimeReadAllocs: once NewJournalWriter has primed the scratch
// slice, reading the runtime allocates nothing, so the stamp on every
// record costs no garbage.
func TestRuntimeReadAllocs(t *testing.T) {
	jw := NewJournalWriter(io.Discard)
	jw.readRuntime() // warm any lazily grown histogram buckets
	if allocs := testing.AllocsPerRun(100, func() { jw.readRuntime() }); allocs != 0 {
		t.Errorf("runtime read allocates %.1f per call, want 0", allocs)
	}
}

// TestHistQuantileNs: the quantile is the lower bound of the bucket that
// holds it, and the upper bound of the -Inf bucket.
func TestHistQuantileNs(t *testing.T) {
	inf := math.Inf(1)
	h := &rtm.Float64Histogram{
		Counts:  []uint64{1, 0, 6, 2, 1},
		Buckets: []float64{-inf, 1e-6, 2e-6, 4e-6, 8e-6, inf},
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{
		{0.05, 1000}, // the -Inf bucket: its upper bound
		{0.5, 2000},
		{0.7, 2000},
		{0.9, 4000},
		{0.99, 8000}, // the +Inf bucket: its lower bound
		{1, 8000},
	} {
		if got := histQuantileNs(h, c.q); got != c.want {
			t.Errorf("q=%v: %d ns, want %d", c.q, got, c.want)
		}
	}
	if got := histQuantileNs(&rtm.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}, 0.99); got != 0 {
		t.Errorf("empty histogram: %d ns, want 0", got)
	}
	if got := histQuantileNs(nil, 0.99); got != 0 {
		t.Errorf("nil histogram: %d ns, want 0", got)
	}
}

func TestReadJournalAcceptsV1(t *testing.T) {
	// A v1 journal has run entries only, no header, schema iawj-journal/v1.
	v1 := `{"schema":"iawj-journal/v1","kind":"run","algorithm":"NPJ","matches":7,"throughput_tuples_per_ms":1.5}` + "\n"
	j, err := ReadJournal(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if j.Env != nil {
		t.Errorf("v1 journal has env = %+v, want nil", j.Env)
	}
	if len(j.Runs) != 1 || j.Runs[0].Algorithm != "NPJ" || j.Runs[0].Matches != 7 {
		t.Errorf("v1 run not parsed: %+v", j.Runs)
	}
	// So does a record of a writer that still counted dropped spans.
	old := `{"schema":"iawj-journal/v2","kind":"run","algorithm":"SHJ_JM","matches":3,"dropped_spans":8192}` + "\n"
	if j, err := ReadJournal(strings.NewReader(old)); err != nil || len(j.Runs) != 1 || j.Runs[0].Matches != 3 {
		t.Errorf("record with dropped_spans: %+v, %v", j.Runs, err)
	}
}

func TestReadJournalRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"foreign schema":     `{"schema":"other/v1","kind":"run"}`,
		"window no identity": `{"schema":"iawj-journal/v2","kind":"window","algorithm":"NPJ"}`,
		"not json":           `{“smart quotes”}`,
		"empty":              "",
	}
	for name, in := range cases {
		if _, err := ReadJournal(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJournal accepted %q", name, in)
		}
	}
}

func TestReadJournalKeepsFirstHeaderAndSkipsUnknownKinds(t *testing.T) {
	// Append-mode journals accumulate one header per process; readers keep
	// the first. Unknown kinds are future growth, not errors.
	in := `{"schema":"iawj-journal/v2","kind":"header","env":{"go_version":"go1.0","goos":"a","goarch":"b","num_cpu":1,"gomaxprocs":1}}
{"schema":"iawj-journal/v2","kind":"header","env":{"go_version":"go2.0","goos":"c","goarch":"d","num_cpu":2,"gomaxprocs":2}}
{"schema":"iawj-journal/v3","kind":"checkpoint","algorithm":"NPJ"}
{"schema":"iawj-journal/v2","kind":"run","algorithm":"NPJ","matches":1}
`
	j, err := ReadJournal(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if j.Env == nil || j.Env.GoVersion != "go1.0" {
		t.Errorf("env = %+v, want the first header (go1.0)", j.Env)
	}
	if len(j.Runs) != 1 {
		t.Errorf("got %d runs, want 1 (checkpoint kind skipped)", len(j.Runs))
	}
}

func TestNilJournalWriterIsInert(t *testing.T) {
	var jw *JournalWriter
	if err := jw.WriteHeader(); err != nil {
		t.Errorf("nil WriteHeader: %v", err)
	}
	if err := jw.Write(metricsResultFixture()); err != nil {
		t.Errorf("nil Write: %v", err)
	}
	if err := jw.WriteWindow(metricsResultFixture(), 0, 0, 1); err != nil {
		t.Errorf("nil WriteWindow: %v", err)
	}
}

// TestJournalCarriesPoolTraffic: a window record names the pooled kinds
// that hit and missed during its run, the bytes the pool retained and the
// output path's batch counters, and says nothing at all about a result
// with no pool traffic that only counted.
func TestJournalCarriesPoolTraffic(t *testing.T) {
	res := metricsResultFixture()
	res.Pool.Hits[metrics.PoolTuples] = 12
	res.Pool.Hits[metrics.PoolTable] = 4
	res.Pool.Misses[metrics.PoolU32] = 2
	res.Pool.RetainedBytes = 1 << 16
	res.Output = metrics.OutputStats{Delivered: 40, Parked: 9, Waits: 2, PeakBacklog: 16}

	var buf bytes.Buffer
	jw := NewJournalWriter(&buf)
	if err := jw.WriteWindow(res, 3, 300, 400); err != nil {
		t.Fatal(err)
	}
	if err := jw.Write(metricsResultFixture()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, want := range []string{`"pool_hits":{"table":4,"tuples":12}`, `"pool_misses":{"u32":2}`, `"pool_retained_bytes":65536`,
		`"output_batches_delivered":40`, `"output_batches_parked":9`, `"output_peak_backlog":16`, `"output_waits":2`} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("window record missing %s:\n%s", want, lines[0])
		}
	}
	if strings.Contains(lines[1], "pool_") || strings.Contains(lines[1], "output_") {
		t.Errorf("a count-only result without pool traffic must mention neither:\n%s", lines[1])
	}
	j, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Windows[0]; got.PoolHits["tuples"] != 12 || got.PoolMisses["u32"] != 2 || got.PoolRetainedBytes != 1<<16 ||
		got.OutputDelivered != 40 || got.OutputParked != 9 || got.OutputPeakBacklog != 16 || got.OutputWaits != 2 {
		t.Errorf("pool and output fields did not round-trip: %+v", got)
	}
}
