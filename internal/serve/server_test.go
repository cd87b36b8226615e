package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/synth"
)

// newTestServer compresses two synthetic fields into a temp directory and
// returns a running httptest server over it.
func newTestServer(t *testing.T) (*httptest.Server, *Server, map[string]*grid.Hierarchy) {
	t.Helper()
	dir := t.TempDir()
	want := make(map[string]*grid.Hierarchy)

	// "nyx": the standard SZ3MR container.
	f := synth.Generate(synth.Nyx, 32, 42)
	res, err := repro.CompressUniform(f, repro.Options{RelEB: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "nyx.mrw"), res.Blob, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := core.Decompress(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	want["nyx"] = h

	// "tac": a TAC container (exercises box assembly + slice skipping).
	g := synth.Generate(synth.RT, 32, 7)
	ah, err := grid.BuildAMR(g, 16, []float64{0.4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.CompressHierarchy(ah, core.TACSZ3Options(g.ValueRange()*1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tac.mrw"), c.Blob, 0o644); err != nil {
		t.Fatal(err)
	}
	h2, err := core.Decompress(c.Blob)
	if err != nil {
		t.Fatal(err)
	}
	want["tac"] = h2

	s, err := New(Config{Dir: dir, CacheBytes: 64 << 20, MaxIngestBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts, s, want
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// parseRawField decodes the binary response format.
func parseRawField(t *testing.T, body []byte) *field.Field {
	t.Helper()
	f, err := field.ReadFrom(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t)
	code, body, _ := get(t, ts.URL+"/healthz")
	if code != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

func TestFieldsListing(t *testing.T) {
	ts, _, _ := newTestServer(t)
	code, body, _ := get(t, ts.URL+"/v1/fields")
	if code != 200 {
		t.Fatalf("fields: %d %s", code, body)
	}
	var got struct {
		Fields []fieldSummary `json:"fields"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Fields) != 2 || got.Fields[0].ID != "nyx" || got.Fields[1].ID != "tac" {
		t.Fatalf("fields listing: %+v", got.Fields)
	}
	for _, f := range got.Fields {
		if !f.Indexed || f.Levels < 2 || f.Nx != 32 {
			t.Fatalf("field summary: %+v", f)
		}
	}
}

func TestMeta(t *testing.T) {
	ts, _, _ := newTestServer(t)
	code, body, _ := get(t, ts.URL+"/v1/field/nyx/meta")
	if code != 200 {
		t.Fatalf("meta: %d %s", code, body)
	}
	var meta struct {
		ID          string      `json:"id"`
		Compressor  string      `json:"compressor"`
		Arrangement string      `json:"arrangement"`
		Indexed     bool        `json:"indexed"`
		Levels      []levelMeta `json:"levels"`
	}
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.ID != "nyx" || meta.Compressor != "SZ3" || meta.Arrangement != "linear" || !meta.Indexed {
		t.Fatalf("meta: %+v", meta)
	}
	for _, lm := range meta.Levels {
		if lm.Streams > 0 && (lm.CompressedBytes <= 0 || lm.RawBytes <= 0) {
			t.Fatalf("level meta without sizes: %+v", lm)
		}
	}
}

func TestLevelEndpointMatchesDecompress(t *testing.T) {
	ts, _, want := newTestServer(t)
	for id, h := range want {
		for l := range h.Levels {
			code, body, hdr := get(t, fmt.Sprintf("%s/v1/field/%s/level/%d", ts.URL, id, l))
			if code != 200 {
				t.Fatalf("%s level %d: %d %s", id, l, code, body)
			}
			got := parseRawField(t, body)
			if !got.Equal(h.Levels[l].Data) {
				t.Fatalf("%s level %d differs from sequential decode", id, l)
			}
			if hdr.Get("X-Mrw-Nx") == "" {
				t.Fatalf("%s level %d: missing dimension headers", id, l)
			}
		}
	}
}

func TestSliceEndpoint(t *testing.T) {
	ts, _, want := newTestServer(t)
	h := want["nyx"]
	for _, axis := range []string{"x", "y", "z"} {
		code, body, _ := get(t, ts.URL+"/v1/field/nyx/slice?axis="+axis+"&k=5&level=0")
		if code != 200 {
			t.Fatalf("slice %s: %d %s", axis, code, body)
		}
		got := parseRawField(t, body)
		lf := h.Levels[0].Data
		var wantSlice *field.Field
		switch axis {
		case "x":
			wantSlice = lf.SubBlock(5, 0, 0, 1, lf.Ny, lf.Nz)
		case "y":
			wantSlice = lf.SubBlock(0, 5, 0, lf.Nx, 1, lf.Nz)
		default:
			wantSlice = lf.SliceZ(5)
		}
		if !got.Equal(wantSlice) {
			t.Fatalf("slice %s differs", axis)
		}
	}
	// JSON format round-trips too.
	code, body, _ := get(t, ts.URL+"/v1/field/nyx/slice?k=0&format=json")
	if code != 200 {
		t.Fatalf("json slice: %d", code)
	}
	var js struct {
		Nx   int       `json:"nx"`
		Data []float64 `json:"data"`
	}
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.Nx != 32 || len(js.Data) != 32*32 {
		t.Fatalf("json slice shape: nx=%d len=%d", js.Nx, len(js.Data))
	}
}

func TestErrorResponses(t *testing.T) {
	ts, _, _ := newTestServer(t)
	cases := []struct {
		url  string
		code int
	}{
		{"/v1/field/missing/meta", 404},
		{"/v1/field/missing/level/0", 404},
		{"/v1/field/..%2Fnyx/meta", 400},
		{"/v1/field/nyx/level/99", 404},
		{"/v1/field/nyx/level/x", 400},
		{"/v1/field/nyx/slice?axis=w&k=0", 400},
		{"/v1/field/nyx/slice?k=100000", 400},
		{"/v1/field/nyx/slice", 400},
	}
	for _, tc := range cases {
		code, body, _ := get(t, ts.URL+tc.url)
		if code != tc.code {
			t.Errorf("%s: got %d want %d (%s)", tc.url, code, tc.code, body)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t)
	// Generate traffic: two reads of the same level (one cold, one cached)
	// and one error.
	get(t, ts.URL+"/v1/field/nyx/level/1")
	get(t, ts.URL+"/v1/field/nyx/level/1")
	get(t, ts.URL+"/v1/field/missing/meta")
	code, body, hdr := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("metrics content type %q", hdr.Get("Content-Type"))
	}
	text := string(body)
	for _, want := range []string{
		`mrserve_requests_total{endpoint="level"} 2`,
		`mrserve_request_errors_total{endpoint="meta"} 1`,
		"mrserve_cache_hits_total",
		"mrserve_cache_misses_total",
		"mrserve_backend_decodes_total",
		"mrserve_request_seconds_total",
		"mrserve_fields_open 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	// The second level read must have come from cache: decodes == hits' cold
	// complement. Weaker but robust check: hits > 0.
	if strings.Contains(text, "mrserve_cache_hits_total 0\n") {
		t.Error("repeated level read recorded no cache hits")
	}
}

// TestConcurrentTraffic hammers every endpoint from many goroutines; with
// -race this is the serving-path concurrency proof.
func TestConcurrentTraffic(t *testing.T) {
	ts, _, want := newTestServer(t)
	urls := []string{
		"/v1/fields",
		"/v1/field/nyx/meta",
		"/v1/field/nyx/level/0",
		"/v1/field/nyx/level/1",
		"/v1/field/tac/level/0",
		"/v1/field/tac/level/1",
		"/v1/field/nyx/slice?axis=z&k=3",
		"/v1/field/tac/slice?axis=y&k=7&level=0",
		"/metrics",
		"/healthz",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				u := urls[(g+i)%len(urls)]
				resp, err := http.Get(ts.URL + u)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("%s: status %d", u, resp.StatusCode)
					return
				}
				// Spot-check payload integrity under concurrency.
				if u == "/v1/field/nyx/level/1" {
					f, err := field.ReadFrom(strings.NewReader(string(body)))
					if err != nil {
						errs <- fmt.Errorf("%s: %v", u, err)
						return
					}
					if !f.Equal(want["nyx"].Levels[1].Data) {
						errs <- fmt.Errorf("%s: payload corrupted under concurrency", u)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
