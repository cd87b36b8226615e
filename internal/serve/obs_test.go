package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/synth"
)

// syncBuffer is a mutex-guarded log sink: the handler's deferred log write
// may still be running when the client already has the response.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls the buffer until substr shows up (the handler's deferred
// accounting runs after the response is on the wire).
func (s *syncBuffer) waitFor(t *testing.T, substr string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if line := s.String(); strings.Contains(line, substr) || time.Now().After(deadline) {
			return line
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// expectedMetricEndpoints is the instrumented-endpoint roster the metrics
// tests assert histogram series for. The mrlint obsspan check verifies
// every endpoint registered through Server.instrument appears here, so a
// new endpoint cannot ship without joining the metrics contract.
var expectedMetricEndpoints = []string{"healthz", "fields", "meta", "level", "slice", "ingest"}

// TestRequestIDEcho pins the trace-identity contract: a client-supplied
// X-Request-Id comes back verbatim, and a request without one gets a
// generated ID.
func TestRequestIDEcho(t *testing.T) {
	ts, _, _ := newTestServer(t)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/field/nyx/level/0", nil)
	req.Header.Set("X-Request-Id", "my-req-007")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "my-req-007" {
		t.Fatalf("X-Request-Id echoed %q, want my-req-007", got)
	}
	code, _, hdr := get(t, ts.URL+"/healthz")
	if code != 200 {
		t.Fatalf("healthz %d", code)
	}
	if gen := hdr.Get("X-Request-Id"); len(gen) != 16 {
		t.Fatalf("generated X-Request-Id %q, want 16 hex chars", gen)
	}
}

// tracesResponse mirrors the /debug/traces JSON shape.
type tracesResponse struct {
	Traces []obs.TraceSnapshot `json:"traces"`
}

// waitForTrace polls /debug/traces until the trace with the given ID is in
// the ring. Server.instrument's contract is that a trace is visible
// eventually, not before the last body byte, so reading the ring once right
// after the response races the handler's deferred Finish.
func waitForTrace(t *testing.T, baseURL, id string) obs.TraceSnapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body, _ := get(t, baseURL+"/debug/traces")
		if code != 200 {
			t.Fatalf("/debug/traces: %d", code)
		}
		var tr tracesResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatalf("/debug/traces not JSON: %v\n%s", err, body)
		}
		for _, snap := range tr.Traces {
			if snap.ID == id {
				return snap
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s not in ring after 5s (%d traces)", id, len(tr.Traces))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTraceSpansChain is the acceptance criterion: a traced level request
// must show at least the serve → read → decode span chain, each span with a
// recorded duration, retrievable by the request's trace ID.
func TestTraceSpansChain(t *testing.T) {
	ts, _, _ := newTestServer(t)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/field/nyx/level/0", nil)
	req.Header.Set("X-Request-Id", "chain-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("level: %d", resp.StatusCode)
	}

	found := waitForTrace(t, ts.URL, "chain-trace-1")
	spans := map[string]obs.SpanSnapshot{}
	for _, sp := range found.Spans {
		spans[sp.Name] = sp
	}
	for _, name := range []string{"serve:level", "read_level", "decode"} {
		sp, ok := spans[name]
		if !ok {
			t.Fatalf("trace missing span %q (has %v)", name, found.Spans)
		}
		if sp.DurationNs <= 0 {
			t.Errorf("span %q has no duration", name)
		}
	}
	if found.Attrs["endpoint"] != "level" || found.Attrs["status"] != "200" {
		t.Errorf("trace attrs %v", found.Attrs)
	}
	// The chain nests: read_level under the serve root, decode under
	// read_level.
	if spans["read_level"].Parent != "serve:level" {
		t.Errorf("read_level parent %q", spans["read_level"].Parent)
	}
	if spans["decode"].Parent != "read_level" {
		t.Errorf("decode parent %q", spans["decode"].Parent)
	}
}

// TestMetricsHistograms asserts /metrics serves a complete histogram
// series (_bucket/_sum/_count) for every instrumented endpoint, stage
// histograms for the read path, and that every pre-histogram metric name
// is still present (the compatibility half of metrics v2).
func TestMetricsHistograms(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for _, path := range []string{"/v1/field/nyx/level/0", "/v1/field/nyx/slice?axis=z&k=1", "/v1/fields", "/v1/field/nyx/meta", "/healthz"} {
		if code, body, _ := get(t, ts.URL+path); code != 200 {
			t.Fatalf("%s: %d %s", path, code, body)
		}
	}
	code, body, _ := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	text := string(body)
	for _, e := range expectedMetricEndpoints {
		for _, series := range []string{
			fmt.Sprintf(`mrserve_request_duration_seconds_bucket{endpoint=%q,le="+Inf"}`, e),
			fmt.Sprintf(`mrserve_request_duration_seconds_sum{endpoint=%q}`, e),
			fmt.Sprintf(`mrserve_request_duration_seconds_count{endpoint=%q}`, e),
		} {
			if !strings.Contains(text, series) {
				t.Errorf("missing histogram series %s", series)
			}
		}
	}
	for _, stage := range []string{"read_level", "decode", "stream_read"} {
		if !strings.Contains(text, fmt.Sprintf(`mrserve_stage_duration_seconds_count{stage=%q}`, stage)) {
			t.Errorf("missing stage histogram for %q", stage)
		}
	}
	// Every metric name from before the histogram migration must survive.
	for _, name := range []string{
		"mrserve_requests_total", "mrserve_request_errors_total", "mrserve_request_seconds_total",
		"mrserve_cache_hits_total", "mrserve_cache_misses_total", "mrserve_cache_evictions_total",
		"mrserve_cache_bytes", "mrserve_cache_budget_bytes", "mrserve_cache_entries",
		"mrserve_backend_decodes_total", "mrserve_compressed_bytes_read_total", "mrserve_fields_open",
		"mrserve_read_retries_total", "mrserve_corrupt_streams_total",
		"mrserve_field_read_retries_total", "mrserve_field_corrupt_streams_total",
		"mrserve_degraded_responses_total", "mrserve_quarantine_events_total",
		"mrserve_quarantined_levels", "mrserve_handler_panics_total", "mrserve_temps_swept_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("pre-existing metric %s disappeared from /metrics", name)
		}
	}
	// The level request above decoded through the histogram path: its
	// count must be nonzero.
	if !strings.Contains(text, `mrserve_request_duration_seconds_count{endpoint="level"} 1`) {
		t.Errorf("level histogram count not 1:\n%s", grepLines(text, "mrserve_request_duration_seconds_count"))
	}
	// The request counters are the histogram's count and sum.
	vals := metricLines(text)
	for _, e := range expectedMetricEndpoints {
		lbl := fmt.Sprintf("{endpoint=%q}", e)
		if n, c := vals["mrserve_requests_total"+lbl], vals["mrserve_request_duration_seconds_count"+lbl]; n != c {
			t.Errorf("%s: mrserve_requests_total %s, histogram _count %s", e, n, c)
		}
		secs, err1 := strconv.ParseFloat(vals["mrserve_request_seconds_total"+lbl], 64)
		sum, err2 := strconv.ParseFloat(vals["mrserve_request_duration_seconds_sum"+lbl], 64)
		// seconds_total prints 6 decimals and _sum 9: the two roundings
		// leave them at most 5e-7 + 5e-10 apart.
		if err1 != nil || err2 != nil || math.Abs(secs-sum) > 5.005e-7 {
			t.Errorf("%s: mrserve_request_seconds_total %s, histogram _sum %s", e,
				vals["mrserve_request_seconds_total"+lbl], vals["mrserve_request_duration_seconds_sum"+lbl])
		}
	}
}

// metricLines maps each line of a /metrics page to its value: a HELP or
// TYPE line to "", a sample's name{labels} to its printed value.
func metricLines(text string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			out[line] = ""
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		out[line[:i]] = line[i+1:]
	}
	return out
}

// TestMetricsSeriesSet pins what /metrics exposes: after a fixed request
// sequence its HELP/TYPE lines and sample keys (name{labels}, le included)
// must equal testdata/metrics_series.txt, captured before request counts
// and latency moved onto the collector's stage histograms. The only keys
// allowed beyond the list are zero-count serve:<endpoint> stage series of
// endpoints the sequence did not request.
func TestMetricsSeriesSet(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var raw bytes.Buffer
	if _, err := synth.Generate(synth.Nyx, 32, 5).WriteTo(&raw); err != nil {
		t.Fatal(err)
	}
	seq := []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/field/nyx/level/0", http.StatusOK},
		{http.MethodGet, "/v1/field/nyx/slice?axis=z&k=1", http.StatusOK},
		{http.MethodGet, "/v1/fields", http.StatusOK},
		{http.MethodGet, "/v1/field/nyx/meta", http.StatusOK},
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodPut, "/v1/field/put", http.StatusCreated},
		{http.MethodGet, "/v1/field/missing/level/0", http.StatusNotFound},
	}
	for i, rq := range seq {
		var body io.Reader
		if rq.method == http.MethodPut {
			body = bytes.NewReader(raw.Bytes())
		}
		req, err := http.NewRequest(rq.method, ts.URL+rq.path, body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", fmt.Sprintf("series-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != rq.want {
			t.Fatalf("%s %s: %d, want %d", rq.method, rq.path, resp.StatusCode, rq.want)
		}
	}
	// A trace reaches the ring after its spans reached the stage histograms.
	for i := range seq {
		waitForTrace(t, ts.URL, fmt.Sprintf("series-%d", i))
	}
	_, body, _ := get(t, ts.URL+"/metrics")
	got := metricLines(string(body))
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics_series.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, k := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		want[k] = true
		if _, ok := got[k]; !ok {
			t.Errorf("/metrics lost %s", k)
		}
	}
	for k, v := range got {
		if want[k] {
			continue
		}
		if n, err := strconv.ParseFloat(v, 64); err == nil && n == 0 &&
			strings.HasPrefix(k, "mrserve_stage_duration_seconds") && strings.Contains(k, `stage="serve:`) {
			continue
		}
		t.Errorf("/metrics gained %s %s", k, v)
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestAccessLog wires a log writer at sample rate 1 and checks each
// request emits one key=value line carrying the trace ID and outcome.
func TestAccessLog(t *testing.T) {
	ts, s, _ := newTestServer(t)
	var buf syncBuffer
	s.accessLog = obs.NewLogger(&buf)
	s.logSample = obs.NewSampler(1)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/field/nyx/level/0", nil)
	req.Header.Set("X-Request-Id", "logged-req")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line := buf.waitFor(t, "trace=logged-req")
	for _, want := range []string{"trace=logged-req", "endpoint=level", "status=200", "degraded=false", "dur="} {
		if !strings.Contains(line, want) {
			t.Errorf("access log missing %q: %s", want, line)
		}
	}
}

// TestSlowRequestLog sets a zero-distance slow threshold and checks the
// trace lands in the slow log with its span breakdown.
func TestSlowRequestLog(t *testing.T) {
	ts, s, _ := newTestServer(t)
	var buf syncBuffer
	s.obs.SetSlowLog(time.Nanosecond, obs.NewLogger(&buf))
	code, _, _ := get(t, ts.URL+"/v1/field/nyx/level/0")
	if code != 200 {
		t.Fatalf("level: %d", code)
	}
	line := buf.waitFor(t, "slow_request=true")
	for _, want := range []string{"slow_request=true", "endpoint=level", "read_level:"} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log missing %q: %s", want, line)
		}
	}
}

// TestTraceRingBounded: the /debug/traces ring honors its configured size.
func TestTraceRingBounded(t *testing.T) {
	ts, s, _ := newTestServer(t)
	_ = s
	for i := 0; i < 12; i++ {
		get(t, ts.URL+"/healthz")
	}
	code, body, _ := get(t, ts.URL+"/debug/traces?n=5")
	if code != 200 {
		t.Fatalf("/debug/traces: %d", code)
	}
	var tr tracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Traces) != 5 {
		t.Fatalf("?n=5 returned %d traces", len(tr.Traces))
	}
}
