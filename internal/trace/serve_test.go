package trace

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestRegistryMetricsExposition(t *testing.T) {
	g := NewRegistry()
	pooled := metricsResultFixture()
	pooled.Pool.Hits[metrics.PoolTuples] = 6
	pooled.Pool.Misses[metrics.PoolShared] = 1
	pooled.Pool.Hits[metrics.PoolCollector] = 1
	pooled.Pool.RetainedBytes = 4096
	pooled.Output = metrics.OutputStats{Delivered: 30, Parked: 7, Waits: 1, PeakBacklog: 16}
	g.Observe(pooled)
	g.Observe(pooled) // second run accumulates counters

	rec := NewRecorder(1, 8)
	rec.StartRun("SHJ_JM")
	rec.T(0).Record(4, 0, 5000, 64)
	g.Attach(rec)

	srv := httptest.NewServer(NewServeMux(g))
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		`iawj_runs_total{algorithm="SHJ_JM"} 2`,
		`iawj_inputs_total{algorithm="SHJ_JM"} 4000`,
		`iawj_matches_total{algorithm="SHJ_JM"} 3000`,
		`iawj_sink_runs_total{algorithm="SHJ_JM"} 600`,
		`iawj_phase_ns_total{algorithm="SHJ_JM",phase="probe"} 1000`,
		`iawj_latency_ms{algorithm="SHJ_JM",quantile="0.99"} 9`,
		`iawj_pool_hits_total{algorithm="SHJ_JM",kind="tuples"} 12`,
		`iawj_pool_misses_total{algorithm="SHJ_JM",kind="shared"} 2`,
		`iawj_pool_hits_total{algorithm="SHJ_JM",kind="collector"} 2`,
		`iawj_pool_retained_bytes{algorithm="SHJ_JM"} 4096`,
		`iawj_output_batches_total{algorithm="SHJ_JM",fate="delivered"} 60`,
		`iawj_output_batches_total{algorithm="SHJ_JM",fate="parked"} 14`,
		`iawj_output_waits_total{algorithm="SHJ_JM"} 2`,
		`iawj_output_peak_backlog{algorithm="SHJ_JM"} 16`,
		`iawj_trace_spans 1`,
		`iawj_trace_span_ns_total{algorithm="SHJ_JM",phase="probe"} 5000`,
		"# TYPE iawj_runs_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}
}

func TestServeMuxEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewServeMux(NewRegistry()))
	defer srv.Close()

	if body := get(t, srv.URL+"/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q, want ok", body)
	}
	if body := get(t, srv.URL+"/debug/vars"); !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars missing memstats")
	}
	if body := get(t, srv.URL+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ missing profile index")
	}
}

func TestServeListens(t *testing.T) {
	addr, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	body := get(t, "http://"+addr+"/metrics")
	if !strings.Contains(body, "# HELP iawj_runs_total") {
		t.Errorf("served /metrics missing headers:\n%s", body)
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
