package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultio"
	"repro/internal/index"
	"repro/internal/reader"
	"repro/internal/writer"
)

// corruptLevelOnDisk flips one payload byte in every stream of the given
// level of a served container, in place. The footer (and its checksums) is
// untouched, so the damage is exactly what a scrub or a verified read must
// catch. The file's mtime is bumped so the server's stat-revalidation drops
// any already-open reader.
func corruptLevelOnDisk(t *testing.T, dir, id string, level int) {
	t.Helper()
	path := filepath.Join(dir, id+".mrw")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.ReadFrom(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range ix.Streams {
		if s.Level == level {
			blob[s.Offset+s.Len/2] ^= 0x20
			n++
		}
	}
	if n == 0 {
		t.Fatalf("no streams at level %d", level)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
}

// metricValue extracts one un-labeled counter value from Prometheus text.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// TestLevelFallsBackOnCorruption is the degradation half of the tentpole: a
// corrupt finest level must not 500 — the response falls back to the next
// intact level, flagged with X-Degraded, and the level is quarantined so
// the second request skips the corrupt bytes entirely.
func TestLevelFallsBackOnCorruption(t *testing.T) {
	ts, s, want := newTestServer(t)
	corruptLevelOnDisk(t, s.dataDir(), "nyx", 0)

	code, body, hdr := get(t, ts.URL+"/v1/field/nyx/level/0")
	if code != 200 {
		t.Fatalf("corrupt level 0: %d %s", code, body)
	}
	deg := hdr.Get("X-Degraded")
	if !strings.Contains(deg, "requested-level=0") || !strings.Contains(deg, "reason=corrupt") {
		t.Fatalf("X-Degraded %q", deg)
	}
	served, err := strconv.Atoi(hdr.Get("X-Mrw-Level"))
	if err != nil || served == 0 {
		t.Fatalf("served level %q", hdr.Get("X-Mrw-Level"))
	}
	got := parseRawField(t, body)
	if !got.Equal(want["nyx"].Levels[served].Data) {
		t.Fatalf("degraded response is not level %d's data", served)
	}

	// Second request: the corrupt level is quarantined, so the fallback is
	// immediate (no re-read of bad bytes) and still explicitly flagged.
	code, body, hdr = get(t, ts.URL+"/v1/field/nyx/level/0")
	if code != 200 {
		t.Fatalf("quarantined level 0: %d %s", code, body)
	}
	if deg := hdr.Get("X-Degraded"); !strings.Contains(deg, "reason=quarantined") {
		t.Fatalf("second X-Degraded %q", deg)
	}
	if !parseRawField(t, body).Equal(want["nyx"].Levels[served].Data) {
		t.Fatal("quarantined fallback served wrong data")
	}

	// The resilience picture shows up in /healthz...
	code, body, _ = get(t, ts.URL+"/healthz")
	if code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz lost its ok: %s", body)
	}
	var hz struct {
		Quarantined int   `json:"quarantined_levels"`
		Events      int64 `json:"quarantine_events"`
		Degraded    int64 `json:"degraded_responses"`
		Corrupt     int64 `json:"corrupt_streams"`
		Fields      map[string]fieldHealth
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Quarantined != 1 || hz.Events != 1 || hz.Degraded != 2 || hz.Corrupt == 0 {
		t.Fatalf("healthz counters: %+v (%s)", hz, body)
	}
	if fh := hz.Fields["nyx"]; fh.CorruptStreams == 0 || len(fh.QuarantinedLevels) != 1 || fh.QuarantinedLevels[0] != 0 {
		t.Fatalf("per-field health: %+v", hz.Fields)
	}

	// ...and in /metrics.
	_, body, _ = get(t, ts.URL+"/metrics")
	text := string(body)
	if !strings.Contains(text, `mrserve_degraded_responses_total{endpoint="level"} 2`) {
		t.Fatalf("metrics missing degraded counter:\n%s", text)
	}
	if metricValue(t, text, "mrserve_quarantine_events_total") != 1 {
		t.Fatalf("quarantine events:\n%s", text)
	}
	if metricValue(t, text, "mrserve_quarantined_levels") != 1 {
		t.Fatalf("quarantined gauge:\n%s", text)
	}
	if metricValue(t, text, "mrserve_corrupt_streams_total") == 0 {
		t.Fatalf("corrupt streams not counted:\n%s", text)
	}
	if !strings.Contains(text, `mrserve_field_corrupt_streams_total{field="nyx"}`) {
		t.Fatalf("per-field corruption missing:\n%s", text)
	}
}

// TestSliceFallsBackAndRescalesK: on fallback the plane index is rescaled
// to the coarser grid so the served slice covers the same physical cut.
func TestSliceFallsBackAndRescalesK(t *testing.T) {
	ts, s, want := newTestServer(t)
	corruptLevelOnDisk(t, s.dataDir(), "nyx", 0)
	code, body, hdr := get(t, ts.URL+"/v1/field/nyx/slice?axis=z&k=6&level=0")
	if code != 200 {
		t.Fatalf("degraded slice: %d %s", code, body)
	}
	if deg := hdr.Get("X-Degraded"); !strings.Contains(deg, "reason=corrupt") {
		t.Fatalf("X-Degraded %q", deg)
	}
	served, _ := strconv.Atoi(hdr.Get("X-Mrw-Level"))
	servedK, _ := strconv.Atoi(hdr.Get("X-Mrw-K"))
	if served == 0 || servedK != 6>>uint(served) {
		t.Fatalf("served level %d k %d", served, servedK)
	}
	got := parseRawField(t, body)
	if !got.Equal(want["nyx"].Levels[served].Data.SliceZ(servedK)) {
		t.Fatal("degraded slice data wrong")
	}
}

// TestAllLevelsCorrupt: when nothing intact remains the failure is a typed
// 500 naming the corruption — degradation has a floor, not a lie.
func TestAllLevelsCorrupt(t *testing.T) {
	ts, s, want := newTestServer(t)
	for l := range want["nyx"].Levels {
		corruptLevelOnDisk(t, s.dataDir(), "nyx", l)
	}
	code, body, _ := get(t, ts.URL+"/v1/field/nyx/level/0")
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "corrupt") {
		t.Fatalf("all-corrupt read: %d %s", code, body)
	}
}

// TestServerAbsorbsTransientFaults wires a deterministic transient-fault
// injector under every reader (the same seam -fault-inject uses) and
// proves the serving path retries through it: every response stays 200
// with intact data, and the retries are visible in /metrics.
func TestServerAbsorbsTransientFaults(t *testing.T) {
	ts, s, want := newTestServer(t)
	// TransientProb 1 with MaxFaults 2: the first two read attempts fail
	// (deterministically, whatever the seed), then the source runs clean —
	// inside the serving default's 3-attempt budget, so no request may
	// fail.
	s.readerOpts = []reader.Option{
		reader.WithSourceWrap(func(src io.ReaderAt) io.ReaderAt {
			return faultio.NewFaultReaderAt(src, faultio.FaultPlan{Seed: 3, TransientProb: 1, MaxFaults: 2})
		}),
	}
	for id, h := range want {
		for l := range h.Levels {
			code, body, _ := get(t, fmt.Sprintf("%s/v1/field/%s/level/%d", ts.URL, id, l))
			if code != 200 {
				t.Fatalf("%s level %d under transients: %d %s", id, l, code, body)
			}
			if !parseRawField(t, body).Equal(h.Levels[l].Data) {
				t.Fatalf("%s level %d corrupted by transient faults", id, l)
			}
		}
	}
	_, body, _ := get(t, ts.URL+"/metrics")
	if metricValue(t, string(body), "mrserve_read_retries_total") == 0 {
		t.Fatal("no retries counted despite injected transients")
	}
}

// TestHandlerPanicBecomesCounted500: the instrument wrapper is the last
// line of panic defense.
func TestHandlerPanicBecomesCounted500(t *testing.T) {
	_, s, _ := newTestServer(t)
	h := s.instrument("level", func(http.ResponseWriter, *http.Request) { panic("boom") })
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/v1/field/x/level/0", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d", rec.Code)
	}
	if s.metrics.panics.Load() != 1 || s.metrics.errors["level"].Load() != 1 {
		t.Fatalf("panic not counted: panics=%d errors=%d",
			s.metrics.panics.Load(), s.metrics.errors["level"].Load())
	}
}

// TestQuarantineTTL exercises the negative cache directly with a fake
// clock: entries expire and refresh.
func TestQuarantineTTL(t *testing.T) {
	q := newQuarantine(time.Minute)
	base := time.Now()
	cur := base
	q.now = func() time.Time { return cur }

	if !q.add(0) {
		t.Fatal("first add not counted as new")
	}
	if q.add(0) {
		t.Fatal("refresh counted as new")
	}
	if !q.active(0) || q.active(1) {
		t.Fatal("active membership wrong")
	}
	cur = base.Add(2 * time.Minute)
	if q.active(0) {
		t.Fatal("entry survived its TTL")
	}
	if !q.add(0) {
		t.Fatal("re-add after expiry not counted as new")
	}
	q.add(2)
	if lv := q.levels(); len(lv) != 2 || lv[0] != 0 || lv[1] != 2 {
		t.Fatalf("levels: %v", lv)
	}
	cur = cur.Add(2 * time.Minute)
	if lv := q.levels(); len(lv) != 0 {
		t.Fatalf("levels after expiry: %v", lv)
	}
}

// TestReplaceStartsQuarantineClean: quarantine history belongs to one open
// container version. Replacing a container whose fine level is quarantined
// must serve the new container's fine level intact on the very next request,
// with nothing quarantined any more.
func TestReplaceStartsQuarantineClean(t *testing.T) {
	ts, s, want := newTestServer(t)
	corruptLevelOnDisk(t, s.dataDir(), "nyx", 0)
	if _, _, hdr := get(t, ts.URL+"/v1/field/nyx/level/0"); !strings.Contains(hdr.Get("X-Degraded"), "reason=corrupt") {
		t.Fatalf("corrupt level not degraded: X-Degraded %q", hdr.Get("X-Degraded"))
	}
	// Replace nyx with tac's (intact) container.
	blob, err := os.ReadFile(filepath.Join(s.dataDir(), "tac.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	err = writer.AtomicFile(filepath.Join(s.dataDir(), "nyx.mrw"), 0o644, func(w io.Writer) error {
		_, werr := w.Write(blob)
		return werr
	})
	if err != nil {
		t.Fatal(err)
	}
	code, body, hdr := get(t, ts.URL+"/v1/field/nyx/level/0")
	if code != 200 || hdr.Get("X-Degraded") != "" {
		t.Fatalf("replaced container still degraded: %d, X-Degraded %q", code, hdr.Get("X-Degraded"))
	}
	if !parseRawField(t, body).Equal(want["tac"].Levels[0].Data) {
		t.Fatal("replaced container's level 0 is not the new data")
	}
	_, body, _ = get(t, ts.URL+"/metrics")
	if n := metricValue(t, string(body), "mrserve_quarantined_levels"); n != 0 {
		t.Fatalf("%d levels still quarantined after the replace", n)
	}
}

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("seed=7, transient=0.05,maxfaults=100,latency=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 || plan.TransientProb != 0.05 || plan.MaxFaults != 100 || plan.Latency != 2*time.Millisecond {
		t.Fatalf("plan: %+v", plan)
	}
	for _, bad := range []string{"bogus=1", "transient", "seed=x"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
