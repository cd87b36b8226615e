package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/reader"
	"repro/internal/synth"
	"repro/internal/writer"
)

// rawFieldBody serializes a field in the PUT ingest wire format.
func rawFieldBody(t *testing.T, f *field.Field) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

func doPut(t *testing.T, url string, body io.Reader) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// expectedLevels compresses a field with the ingest defaults and returns
// the per-level reconstructions the server should serve for it.
func expectedLevels(t *testing.T, f *field.Field) []*field.Field {
	t.Helper()
	res, err := repro.CompressUniform(f, repro.Options{RelEB: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.Decompress(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*field.Field, len(h.Levels))
	for li := range h.Levels {
		out[li] = h.Levels[li].Data
	}
	return out
}

// TestIngestEndpoint uploads a field, reads it back at every level,
// replaces it with a second upload, and checks the served data flips —
// through the reader, the listing, and the brick cache.
func TestIngestEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, CacheBytes: 64 << 20, MaxIngestBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	fA := synth.Generate(synth.Nyx, 32, 3)
	code, body := doPut(t, ts.URL+"/v1/field/up", rawFieldBody(t, fA))
	if code != http.StatusCreated {
		t.Fatalf("first PUT: %d %s", code, body)
	}
	if !strings.Contains(string(body), `"container_bytes"`) {
		t.Fatalf("PUT response: %s", body)
	}
	if _, err := os.Stat(filepath.Join(dir, "up.mrw")); err != nil {
		t.Fatalf("container not installed: %v", err)
	}
	wantA := expectedLevels(t, fA)
	for li, want := range wantA {
		code, lvl, _ := get(t, fmt.Sprintf("%s/v1/field/up/level/%d", ts.URL, li))
		if code != 200 {
			t.Fatalf("level %d: %d", li, code)
		}
		if !parseRawField(t, lvl).Equal(want) {
			t.Fatalf("level %d differs from local compression with ingest defaults", li)
		}
	}
	// Listing reflects the ingested field.
	code, list, _ := get(t, ts.URL+"/v1/fields")
	if code != 200 || !strings.Contains(string(list), `"up"`) {
		t.Fatalf("listing after ingest: %d %s", code, list)
	}

	// Replace with different data: second PUT is a 200, and every level —
	// including the ones just warmed into the brick cache — must flip.
	fB := synth.Generate(synth.RT, 32, 9)
	code, body = doPut(t, ts.URL+"/v1/field/up", rawFieldBody(t, fB))
	if code != http.StatusOK {
		t.Fatalf("replacing PUT: %d %s", code, body)
	}
	wantB := expectedLevels(t, fB)
	for li, want := range wantB {
		_, lvl, _ := get(t, fmt.Sprintf("%s/v1/field/up/level/%d", ts.URL, li))
		got := parseRawField(t, lvl)
		if !got.Equal(want) {
			if got.Equal(wantA[li]) {
				t.Fatalf("level %d still serves the replaced container (stale reader/cache)", li)
			}
			t.Fatalf("level %d differs from expected after replacement", li)
		}
	}
	// The ingest endpoint shows up in metrics.
	_, metrics, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), `mrserve_requests_total{endpoint="ingest"} 2`) {
		t.Fatalf("ingest metrics missing:\n%s", metrics)
	}
}

// TestIngestRejectsBadBoundsAndROI: a bound that is NaN or infinite, and a
// roifrac of 0 or NaN, answer 400 — they used to answer 201 and install a
// container every GET then failed on (500 "sz3: invalid eb in table"), or
// silently compress at roifrac 0.5 — and a rejected replace leaves the
// installed container serving.
func TestIngestRejectsBadBoundsAndROI(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, CacheBytes: 64 << 20, MaxIngestBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	f := synth.Generate(synth.Nyx, 32, 3)
	if code, body := doPut(t, ts.URL+"/v1/field/a", rawFieldBody(t, f)); code != http.StatusCreated {
		t.Fatalf("good PUT: %d %s", code, body)
	}
	want := expectedLevels(t, f)
	for _, q := range []string{"eb=NaN", "releb=NaN", "eb=Inf", "releb=%2BInf", "eb=-0", "roifrac=0", "roifrac=NaN", "roifrac=1.5"} {
		for _, id := range []string{"a", "fresh"} {
			code, body := doPut(t, ts.URL+"/v1/field/"+id+"?"+q, rawFieldBody(t, f))
			if code != http.StatusBadRequest {
				t.Fatalf("PUT %s?%s: %d %s, want 400", id, q, code, body)
			}
			key := strings.SplitN(q, "=", 2)[0]
			if !strings.Contains(string(body), key) {
				t.Fatalf("PUT %s?%s: body %q does not name %s", id, q, body, key)
			}
		}
	}
	for li, w := range want {
		code, lvl, _ := get(t, fmt.Sprintf("%s/v1/field/a/level/%d", ts.URL, li))
		if code != http.StatusOK || !parseRawField(t, lvl).Equal(w) {
			t.Fatalf("level %d after rejected replaces: %d, or not the installed data", li, code)
		}
	}
	if code, _, _ := get(t, ts.URL+"/v1/field/fresh/level/0"); code != http.StatusNotFound {
		t.Fatalf("rejected PUTs installed a field: level 0 answers %d", code)
	}
	if code, body := doPut(t, ts.URL+"/v1/field/a?roifrac=1", rawFieldBody(t, f)); code != http.StatusOK {
		t.Fatalf("roifrac=1: %d %s", code, body)
	}
}

func TestIngestRejections(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, CacheBytes: 64 << 20, MaxIngestBytes: 64 << 10}) // 64 KiB ingest cap
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	f := synth.Generate(synth.Nyx, 32, 3) // 256 KiB raw: over the cap
	if code, _ := doPut(t, ts.URL+"/v1/field/big", rawFieldBody(t, f)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap PUT: %d", code)
	}
	// A tiny body whose header promises a huge field must be rejected from
	// the header alone — before anything is allocated for it.
	hdr := make([]byte, 24)
	for _, off := range []int{0, 8, 16} {
		hdr[off] = 0 // 2048 = 0x800
		hdr[off+1] = 8
	}
	if code, _ := doPut(t, ts.URL+"/v1/field/huge", bytes.NewReader(hdr)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge-header PUT: %d", code)
	}
	if code, _ := doPut(t, ts.URL+"/v1/field/..%2Fetc", rawFieldBody(t, f)); code != http.StatusBadRequest {
		t.Fatalf("path-traversal PUT: %d", code)
	}
	if code, _ := doPut(t, ts.URL+"/v1/field/x?compressor=lzma", rawFieldBody(t, f)); code != http.StatusBadRequest {
		t.Fatalf("unknown compressor: %d", code)
	}
	if code, _ := doPut(t, ts.URL+"/v1/field/x?releb=-1", rawFieldBody(t, f)); code != http.StatusBadRequest {
		t.Fatalf("bad releb: %d", code)
	}
	if code, _ := doPut(t, ts.URL+"/v1/field/x", strings.NewReader("not a field")); code != http.StatusBadRequest {
		t.Fatalf("garbage body: %d", code)
	}
	// 32³ samples under a 16³ header: the first 4 096 samples are a whole
	// field, but the body does not end there, so nothing is installed.
	body, _ := io.ReadAll(rawFieldBody(t, f))
	for _, off := range []int{0, 8, 16} {
		body[off] = 16
	}
	if code, msg := doPut(t, ts.URL+"/v1/field/long", bytes.NewReader(body)); code != http.StatusBadRequest ||
		!strings.Contains(string(msg), "32792 bytes") {
		t.Fatalf("body longer than its header: %d %s", code, msg)
	}
	// Nothing half-written may remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rejected ingests left files: %v", entries)
	}
}

// gatedReaderAt blocks every ReadAt, once armed, until released, and says
// when the first one is being held: it parks a decode inside its backend
// fetch (the idea of internal/reader's thundering-herd test).
type gatedReaderAt struct {
	src     io.ReaderAt
	armed   atomic.Bool
	once    sync.Once
	entered chan struct{} // closed when the first armed read arrives
	release chan struct{}
}

func (g *gatedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if g.armed.Load() {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return g.src.ReadAt(p, off)
}

// fetchLevel GETs one level; usable off the test goroutine.
func fetchLevel(base string, level int) (*field.Field, error) {
	resp, err := http.Get(fmt.Sprintf("%s/v1/field/nyx/level/%d", base, level))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET L%d: status %d, %v", level, resp.StatusCode, err)
	}
	f, err := field.ReadFrom(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("GET L%d: torn payload: %v", level, err)
	}
	return f, nil
}

// TestReplaceWhileServing is the stale-after-replace regression test. A
// level-0 decode is held open on the old reader (a gated source under
// Config.ReaderOptions) while the container is atomically replaced and the
// new reader takes over, and is released only after the new reader has
// answered: its brick lands in the shared cache as late as a brick can.
// Requests hammer level 1 throughout. (a) No request may fail or see torn
// data — every response during the replace is exactly the old or the new
// reconstruction, and the held request gets the whole old one; (b) the new
// reader answers with the new data at once; (c) from the moment the held
// decode has landed, every response at every level is the new data — the
// old reader's late brick must be unreachable. Run under -race this also
// proves the revalidate/close path is data-race free.
func TestReplaceWhileServing(t *testing.T) {
	dir := t.TempDir()
	fA := synth.Generate(synth.Nyx, 32, 3)
	fB := synth.Generate(synth.RT, 32, 9)
	blob := func(f *field.Field) []byte {
		res, err := repro.CompressUniform(f, repro.Options{RelEB: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Blob
	}
	blobA, blobB := blob(fA), blob(fB)
	path := filepath.Join(dir, "nyx.mrw")
	if err := os.WriteFile(path, blobA, 0o644); err != nil {
		t.Fatal(err)
	}
	wantA, wantB := expectedLevels(t, fA), expectedLevels(t, fB)

	// Only the first open — the old container's reader — is gated.
	gate := &gatedReaderAt{entered: make(chan struct{}), release: make(chan struct{})}
	var opens atomic.Int32
	s, err := New(Config{Dir: dir, CacheBytes: 32 << 20, MaxIngestBytes: 1 << 30,
		ReaderOptions: []reader.Option{reader.WithSourceWrap(func(src io.ReaderAt) io.ReaderAt {
			if opens.Add(1) > 1 {
				return src
			}
			gate.src = src
			return gate
		})}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	release := sync.OnceFunc(func() { close(gate.release) })
	t.Cleanup(release) // before ts.Close, which waits for the held request

	// Open the old reader and warm its level 1, then arm the gate: the old
	// reader's next source read — level 0's stream — will block.
	if f, err := fetchLevel(ts.URL, 1); err != nil || !f.Equal(wantA[1]) {
		t.Fatalf("level 1 before the replace: %v", err)
	}
	gate.armed.Store(true)

	// Level-1 traffic across the replace: old or new, never torn.
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := fetchLevel(ts.URL, 1)
				if err == nil && !got.Equal(wantA[1]) && !got.Equal(wantB[1]) {
					err = fmt.Errorf("GET L1: payload is neither old nor new data")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	held := make(chan error, 1)
	go func() {
		got, err := fetchLevel(ts.URL, 0)
		if err == nil && !got.Equal(wantA[0]) {
			err = fmt.Errorf("the request held on the old reader did not get the whole old level 0")
		}
		held <- err
	}()
	select {
	case <-gate.entered:
	case err := <-held:
		t.Fatalf("the level-0 request finished without reaching the gated source: %v", err)
	}

	if err := writer.AtomicFile(path, 0o644, func(w io.Writer) error {
		_, err := w.Write(blobB)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Every lookup revalidates, so the first one after the swap opens — and
	// answers from — the new container, while the old decode is still held.
	if f, err := fetchLevel(ts.URL, 1); err != nil || !f.Equal(wantB[1]) {
		t.Fatalf("level 1 right after the replace is not the new data (%v)", err)
	}
	release()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The old reader's level-0 brick is in the cache now. Nothing may serve it.
	for i := 0; i < 8; i++ {
		for level := range wantB {
			got, err := fetchLevel(ts.URL, level)
			if err != nil {
				t.Fatal(err)
			}
			if got.Equal(wantA[level]) {
				t.Fatalf("GET L%d: served the replaced container's data after the replace settled (the old reader's late brick)", level)
			}
			if !got.Equal(wantB[level]) {
				t.Fatalf("GET L%d: payload is neither old nor new data", level)
			}
		}
	}
}
