package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/field"
	"repro/internal/store"
	"repro/internal/synth"
)

// storeBackendFixtures builds two distinct container blobs (versions A and
// B of the same field id) and their expected level-0 reconstructions.
func storeBackendFixtures(t *testing.T) (blobA, blobB []byte, wantA, wantB *field.Field) {
	t.Helper()
	fA := synth.Generate(synth.Nyx, 32, 3)
	fB := synth.Generate(synth.RT, 32, 9)
	blob := func(f *field.Field) []byte {
		res, err := repro.CompressUniform(f, repro.Options{RelEB: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Blob
	}
	return blob(fA), blob(fB), expectedLevels(t, fA)[0], expectedLevels(t, fB)[0]
}

// storeBackends returns each backend pre-loaded with blobA under nyx.mrw,
// plus a replace function swapping in new bytes the way that backend's
// deployment would: an atomic rename for the directory, Install for the
// in-memory store, a file replace at the origin for HTTP.
func storeBackends(t *testing.T, blobA []byte) []struct {
	name    string
	cfg     Config
	replace func([]byte)
} {
	t.Helper()

	install := func(st store.Store, blob []byte) {
		err := st.Install(context.Background(), "nyx.mrw", func(w io.Writer) error {
			_, werr := w.Write(blob)
			return werr
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	fsDir := t.TempDir()
	fsStore, err := store.NewFS(fsDir)
	if err != nil {
		t.Fatal(err)
	}
	install(fsStore, blobA)

	mem := store.NewMem()
	install(mem, blobA)

	httpDir := t.TempDir()
	replaceAtOrigin := func(blob []byte) {
		// Write + rename, like a publisher would; bump mtime explicitly so
		// the origin's size+mtime ETag always changes.
		tmp := filepath.Join(httpDir, ".nyx.tmp")
		if err := os.WriteFile(tmp, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, filepath.Join(httpDir, "nyx.mrw")); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(filepath.Join(httpDir, "nyx.mrw"), time.Now(), time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	replaceAtOrigin(blobA)
	origin := httptest.NewServer(store.OriginHandler(httpDir))
	t.Cleanup(origin.Close)
	httpStore, err := store.NewHTTP(origin.URL, store.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}

	return []struct {
		name    string
		cfg     Config
		replace func([]byte)
	}{
		{"fs", Config{Store: fsStore, CacheBytes: 32 << 20, MaxIngestBytes: 1 << 30, CacheShards: 4},
			func(b []byte) { install(fsStore, b) }},
		{"mem", Config{Store: mem, CacheBytes: 32 << 20, MaxIngestBytes: 1 << 30, CacheShards: 4},
			func(b []byte) { install(mem, b) }},
		{"http", Config{Store: httpStore, CacheBytes: 32 << 20, MaxIngestBytes: 1 << 30, CacheShards: 4},
			replaceAtOrigin},
	}
}

// TestRevalidationAcrossBackends locks replace-while-serving over every
// storage backend: after the stored container is swapped, the very next
// request serves the new version — the per-lookup identity probe (fstat
// for the directory backend, ETag HEAD for HTTP) detects the replacement
// and drops the stale reader, its summary, and its cached bricks together.
func TestRevalidationAcrossBackends(t *testing.T) {
	blobA, blobB, wantA, wantB := storeBackendFixtures(t)
	for _, be := range storeBackends(t, blobA) {
		t.Run(be.name, func(t *testing.T) {
			s, err := New(be.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() { ts.Close(); s.Close() })
			url := ts.URL + "/v1/field/nyx/level/0"

			code, body, h1 := get(t, url)
			if code != 200 {
				t.Fatalf("GET A: %d %s", code, body)
			}
			if !parseRawField(t, body).Equal(wantA) {
				t.Fatal("version A reconstruction differs")
			}
			etagA := h1.Get("ETag")
			if etagA == "" || strings.HasPrefix(etagA, "W/") {
				t.Fatalf("want a strong ETag on an intact response, got %q", etagA)
			}

			be.replace(blobB)

			code, body, h2 := get(t, url)
			if code != 200 {
				t.Fatalf("GET B: %d %s", code, body)
			}
			if !parseRawField(t, body).Equal(wantB) {
				t.Fatal("request after replace did not serve the new version")
			}
			if h2.Get("ETag") == etagA {
				t.Fatal("ETag unchanged across a content replace")
			}
		})
	}
}

// TestRevalidateEverySpacing locks the probe-spacing contract: with a long
// RevalidateEvery the server intentionally trusts its open reader and
// keeps serving the old version inside the window; with the default (probe
// every lookup) the replacement is picked up immediately — that case is
// TestRevalidationAcrossBackends.
func TestRevalidateEverySpacing(t *testing.T) {
	blobA, blobB, wantA, _ := storeBackendFixtures(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "nyx.mrw"), blobA, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Dir: dir, CacheBytes: 32 << 20, MaxIngestBytes: 1 << 30, CacheShards: 4,
		RevalidateEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	url := ts.URL + "/v1/field/nyx/level/0"

	if code, body, _ := get(t, url); code != 200 || !parseRawField(t, body).Equal(wantA) {
		t.Fatalf("GET A: %d", code)
	}
	if err := os.WriteFile(filepath.Join(dir, "nyx.mrw"), blobB, 0o644); err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, url)
	if code != 200 {
		t.Fatalf("GET inside window: %d %s", code, body)
	}
	if !parseRawField(t, body).Equal(wantA) {
		t.Fatal("server probed inside the revalidation window (want the old version served)")
	}
}

// TestStoreMetricsExposed locks the coalesced-decode counter: after a read
// through a directory store, /metrics reports mrserve_coalesced_reads_total.
func TestStoreMetricsExposed(t *testing.T) {
	blobA, _, _, _ := storeBackendFixtures(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "nyx.mrw"), blobA, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Dir: dir, CacheBytes: 32 << 20, MaxIngestBytes: 1 << 30, CacheShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	if code, _, _ := get(t, ts.URL+"/v1/field/nyx/level/0"); code != 200 {
		t.Fatalf("level: %d", code)
	}
	code, body, _ := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if !strings.Contains(string(body), "mrserve_coalesced_reads_total") {
		t.Error("/metrics missing mrserve_coalesced_reads_total")
	}
}

// TestConditionalGet locks the conditional-request protocol on the read
// endpoints: an intact response carries a strong ETag and a cacheable
// Cache-Control; If-None-Match with that validator answers 304 with an
// empty body (skipping decode entirely); a stale validator gets the full
// 200; level and slice validators are distinct (different representations
// of the same container version).
func TestConditionalGet(t *testing.T) {
	ts, _, _ := newTestServer(t)
	levelURL := ts.URL + "/v1/field/nyx/level/0"

	code, _, h := get(t, levelURL)
	if code != 200 {
		t.Fatalf("GET: %d", code)
	}
	etag := h.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("want a strong quoted ETag, got %q", etag)
	}
	if cc := h.Get("Cache-Control"); !strings.Contains(cc, "max-age") {
		t.Fatalf("intact response Cache-Control = %q, want cacheable", cc)
	}

	cond := func(url, inm string) (int, []byte, http.Header) {
		t.Helper()
		req, err := http.NewRequest("GET", url, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b, resp.Header
	}

	if code, b, h304 := cond(levelURL, etag); code != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("If-None-Match match: %d with %d body bytes", code, len(b))
	} else if h304.Get("ETag") != etag {
		t.Fatalf("304 ETag = %q, want %q", h304.Get("ETag"), etag)
	}
	if code, _, _ := cond(levelURL, `"stale-validator"`); code != 200 {
		t.Fatalf("stale If-None-Match: %d, want 200", code)
	}
	if code, _, _ := cond(levelURL, fmt.Sprintf(`W/%s, "other", %s`, etag, etag)); code != http.StatusNotModified {
		t.Fatal("ETag list with a match not honored")
	}
	if code, _, _ := cond(levelURL, "*"); code != http.StatusNotModified {
		t.Fatal(`If-None-Match: * not honored`)
	}

	// The slice representation has its own validator, distinct from the
	// level's, and honors conditionals the same way.
	sliceURL := ts.URL + "/v1/field/nyx/slice?axis=z&k=1&level=0"
	code, _, hs := get(t, sliceURL)
	if code != 200 {
		t.Fatalf("GET slice: %d", code)
	}
	setag := hs.Get("ETag")
	if setag == "" || setag == etag {
		t.Fatalf("slice ETag %q must be set and distinct from level ETag %q", setag, etag)
	}
	if code, _, _ := cond(sliceURL, setag); code != http.StatusNotModified {
		t.Fatalf("slice If-None-Match match: %d", code)
	}

	// The JSON representation of the same level is another variant again.
	code, _, hj := get(t, levelURL+"?format=json")
	if code != 200 {
		t.Fatalf("GET json: %d", code)
	}
	if jtag := hj.Get("ETag"); jtag == "" || jtag == etag {
		t.Fatalf("json ETag %q must be set and distinct from binary ETag %q", jtag, etag)
	}
}
