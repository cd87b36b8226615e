package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultio"
)

// backends returns one instance of every Store implementation over the same
// two objects, plus whether it accepts writes. The HTTP backend reads a
// temp directory published through OriginHandler — loopback, but the real
// remote path: suffix-range open, ranged reads, ETag identity.
func backends(t *testing.T, objects map[string][]byte) []struct {
	name     string
	st       Store
	writable bool
} {
	t.Helper()

	dir := t.TempDir()
	for k, v := range objects {
		if err := os.WriteFile(filepath.Join(dir, k), v, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fsStore, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}

	mem := NewMem()
	for k, v := range objects {
		data := v
		err := mem.Install(context.Background(), k, func(w io.Writer) error {
			_, werr := w.Write(data)
			return werr
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(OriginHandler(dir))
	t.Cleanup(srv.Close)
	httpStore, err := NewHTTP(srv.URL+"/", HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}

	return []struct {
		name     string
		st       Store
		writable bool
	}{
		{"fs", fsStore, true},
		{"mem", mem, true},
		{"http", httpStore, false},
	}
}

// TestConformance locks the behaviors every backend must share: full and
// positioned reads return identical bytes, Size and Info are consistent,
// Stat's identity matches the open handle's, missing objects wrap
// fs.ErrNotExist, and invalid keys never touch storage.
func TestConformance(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB
	objects := map[string][]byte{"a.mrw": payload, "b.mrw": []byte("tiny")}
	ctx := context.Background()

	for _, be := range backends(t, objects) {
		t.Run(be.name, func(t *testing.T) {
			h, err := be.st.Open(ctx, "a.mrw")
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			if h.Size() != int64(len(payload)) {
				t.Fatalf("Size = %d, want %d", h.Size(), len(payload))
			}
			if h.Info().Size != int64(len(payload)) {
				t.Fatalf("Info().Size = %d, want %d", h.Info().Size, len(payload))
			}

			// Full read, interior read, and a read straddling EOF.
			got := make([]byte, len(payload))
			if _, err := h.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("full ReadAt differs from payload")
			}
			mid := make([]byte, 100)
			if _, err := h.ReadAt(mid, 1000); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mid, payload[1000:1100]) {
				t.Fatal("interior ReadAt differs from payload")
			}
			over := make([]byte, 100)
			n, err := h.ReadAt(over, int64(len(payload))-10)
			if n != 10 || err != io.EOF {
				t.Fatalf("ReadAt past EOF = (%d, %v), want (10, EOF)", n, err)
			}
			if !bytes.Equal(over[:10], payload[len(payload)-10:]) {
				t.Fatal("EOF-straddling ReadAt differs from payload tail")
			}

			// Stat identifies the same version the handle observed.
			info, err := be.st.Stat(ctx, "a.mrw")
			if err != nil {
				t.Fatal(err)
			}
			if !info.Same(h.Info()) {
				t.Fatalf("Stat %+v is not Same as open Info %+v", info, h.Info())
			}

			// Missing objects wrap fs.ErrNotExist on both paths.
			if _, err := be.st.Open(ctx, "missing.mrw"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Open(missing) = %v, want fs.ErrNotExist", err)
			}
			if _, err := be.st.Stat(ctx, "missing.mrw"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Stat(missing) = %v, want fs.ErrNotExist", err)
			}

			// Traversal and separator keys are rejected before storage.
			for _, bad := range []string{"", "a/b", `a\b`, "..", "x..y"} {
				if _, err := be.st.Open(ctx, bad); err == nil {
					t.Errorf("Open(%q) accepted an invalid key", bad)
				}
			}
		})
	}
}

// TestInstallListRoundTrip locks Install atomicity semantics and List on
// the writable backends, and ErrUnsupported on the read-only one.
func TestInstallListRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, be := range backends(t, map[string][]byte{"seed.mrw": []byte("v1")}) {
		t.Run(be.name, func(t *testing.T) {
			if !be.writable {
				err := be.st.Install(ctx, "x.mrw", func(io.Writer) error { return nil })
				if !errors.Is(err, ErrUnsupported) {
					t.Fatalf("Install on read-only backend = %v, want ErrUnsupported", err)
				}
				if _, err := be.st.List(ctx); !errors.Is(err, ErrUnsupported) {
					t.Fatalf("List on read-only backend = %v, want ErrUnsupported", err)
				}
				return
			}

			// Replace while a handle is open: the old handle keeps serving
			// its version's bytes, and the new Stat identity diverges.
			h, err := be.st.Open(ctx, "seed.mrw")
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			old := h.Info()
			err = be.st.Install(ctx, "seed.mrw", func(w io.Writer) error {
				_, werr := w.Write([]byte("version-two"))
				return werr
			})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 2)
			if _, err := h.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(got) != "v1" {
				t.Fatalf("open handle read %q after replace, want the original bytes", got)
			}
			now, err := be.st.Stat(ctx, "seed.mrw")
			if err != nil {
				t.Fatal(err)
			}
			if now.Same(old) {
				t.Fatal("Stat identity unchanged across Install of different content")
			}

			// A failing install leaves no residue.
			boom := errors.New("boom")
			if err := be.st.Install(ctx, "aborted.mrw", func(io.Writer) error { return boom }); !errors.Is(err, boom) {
				t.Fatalf("Install error = %v, want the writer's", err)
			}
			keys, err := be.st.List(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(keys, []string{"seed.mrw"}) {
				t.Fatalf("List = %v, want [seed.mrw]", keys)
			}
		})
	}
}

// TestFSSameSizeSwapInsideOneMtimeTick: two installs of equal-length content
// whose mtimes are forced equal — the swap size+mtime cannot see — must still
// be two versions, to a held handle's identity and to two Stats alike, while
// an unreplaced file stays Same as itself.
func TestFSSameSizeSwapInsideOneMtimeTick(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	tick := time.Unix(1_700_000_000, 0)
	install := func(content string) Info {
		t.Helper()
		err := st.Install(ctx, "f.mrw", func(w io.Writer) error {
			_, werr := io.WriteString(w, content)
			return werr
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(filepath.Join(dir, "f.mrw"), tick, tick); err != nil {
			t.Fatal(err)
		}
		info, err := st.Stat(ctx, "f.mrw")
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	first := install("version-one")
	h, err := st.Open(ctx, "f.mrw")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if !h.Info().Same(first) {
		t.Fatal("an open handle and a Stat of the same file are not Same")
	}
	second := install("version-two")
	if first.Size != second.Size || !first.ModTime.Equal(second.ModTime) {
		t.Fatalf("the swap is visible to size+mtime (%v / %v); the test proves nothing", first, second)
	}
	if h.Info().Same(second) {
		t.Fatal("a handle on the replaced file is Same as its same-size, same-mtime replacement")
	}
	if first.Same(second) {
		t.Fatal("Stats before and after a same-size, same-mtime replacement are Same")
	}
}

// countingOrigin wraps OriginHandler counting requests.
func countingOrigin(t *testing.T, dir string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var n atomic.Int64
	inner := OriginHandler(dir)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &n
}

// TestHTTPRoundTrips proves the backend's round-trip economy: one
// suffix-range GET opens the object AND serves every read inside the
// prefetched tail; a cold interior read costs one ranged GET whose
// read-ahead then absorbs neighboring reads.
func TestHTTPRoundTrips(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 2654435761)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "obj"), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, n := countingOrigin(t, dir)
	st, err := NewHTTP(srv.URL, HTTPOptions{FooterPrefetch: 4096, ReadAhead: 8192})
	if err != nil {
		t.Fatal(err)
	}

	h, err := st.Open(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := n.Load(); got != 1 {
		t.Fatalf("Open cost %d requests, want 1", got)
	}
	if h.Size() != int64(len(payload)) {
		t.Fatalf("Size = %d, want %d", h.Size(), len(payload))
	}

	// Reads inside the prefetched tail are free.
	tail := make([]byte, 512)
	if _, err := h.ReadAt(tail, int64(len(payload))-512); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, payload[len(payload)-512:]) {
		t.Fatal("tail read differs")
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("tail read cost %d extra requests, want 0", got-1)
	}

	// A cold interior read costs one ranged GET; the next read inside its
	// read-ahead window costs none.
	p := make([]byte, 100)
	if _, err := h.ReadAt(p, 5000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, payload[5000:5100]) {
		t.Fatal("interior read differs")
	}
	if got := n.Load(); got != 2 {
		t.Fatalf("cold interior read cost %d requests, want 1", got-1)
	}
	if _, err := h.ReadAt(p, 5100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, payload[5100:5200]) {
		t.Fatal("window read differs")
	}
	if got := n.Load(); got != 2 {
		t.Fatalf("read-ahead window miss: %d extra requests", got-2)
	}
}

// TestHTTPNoRangeFallback locks the degraded-origin path: an origin that
// ignores Range answers 200 with the whole object, and the handle serves
// every read from the buffered body without further requests.
func TestHTTPNoRangeFallback(t *testing.T) {
	payload := []byte("the whole object, no ranges here")
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		w.Write(payload)
	}))
	t.Cleanup(srv.Close)
	st, err := NewHTTP(srv.URL, HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := st.Open(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Size() != int64(len(payload)) {
		t.Fatalf("Size = %d, want %d", h.Size(), len(payload))
	}
	got := make([]byte, len(payload))
	if _, err := h.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("buffered read differs")
	}
	if n.Load() != 1 {
		t.Fatalf("full-body fallback issued %d requests, want 1", n.Load())
	}
}

// TestHTTPObjectChangedMidHandle locks the mixed-version guard: when the
// origin's ETag changes under an open handle, the next ranged read fails
// permanently (reopen, don't retry) instead of splicing bytes from two
// versions into one container image.
func TestHTTPObjectChangedMidHandle(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 64<<10)
	var etag atomic.Value
	etag.Store(`"v1"`)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", etag.Load().(string))
		http.ServeContent(w, r, "obj", time.Time{}, bytes.NewReader(payload))
	}))
	t.Cleanup(srv.Close)
	st, err := NewHTTP(srv.URL, HTTPOptions{FooterPrefetch: 1024, ReadAhead: 1024})
	if err != nil {
		t.Fatal(err)
	}
	h, err := st.Open(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	etag.Store(`"v2"`)
	p := make([]byte, 100)
	_, err = h.ReadAt(p, 0) // outside the tail: must hit the origin
	if err == nil {
		t.Fatal("read across an origin-side replace succeeded")
	}
	if faultio.Classify(err) != faultio.ClassPermanent {
		t.Fatalf("version-change error classified %v, want Permanent", faultio.Classify(err))
	}
}

// TestOriginHandlerRejectsEscapes locks the origin's key discipline: only
// flat names under the directory are served.
func TestOriginHandlerRejectsEscapes(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ok"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	h := OriginHandler(dir)
	for _, path := range []string{"/", "/nope", "/../secret", "/a/b", `/..\x`} {
		req := httptest.NewRequest("GET", "http://origin"+path, nil)
		// Bypass client-side path cleaning: set the raw path explicitly.
		req.URL.Path = path
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %q = %d, want 404", path, rec.Code)
		}
	}
	req := httptest.NewRequest("GET", "http://origin/ok", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get("ETag") == "" {
		t.Fatalf("GET /ok = %d (ETag %q), want 200 with a strong ETag", rec.Code, rec.Header().Get("ETag"))
	}
}

// TestOpenURL locks the scheme dispatch of the store-URL resolver.
func TestOpenURL(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		url  string
		want string // String() prefix; "" = expect an error
	}{
		{"file://" + dir, "file://"},
		{dir, "file://"},
		{"mem://", "mem://"},
		{"http://origin/prefix", "http://origin/prefix/"},
		{"https://origin/", "https://origin/"},
		{"ftp://origin/", ""},
		{"", ""},
	}
	for _, tc := range cases {
		st, err := Open(tc.url)
		if tc.want == "" {
			if err == nil {
				t.Errorf("Open(%q) accepted", tc.url)
			}
			continue
		}
		if err != nil {
			t.Errorf("Open(%q): %v", tc.url, err)
			continue
		}
		if got := st.String(); len(got) < len(tc.want) || got[:len(tc.want)] != tc.want {
			t.Errorf("Open(%q).String() = %q, want prefix %q", tc.url, got, tc.want)
		}
	}
}

// TestOpenObjectURL locks the store/key split of object URLs.
func TestOpenObjectURL(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.mrw"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		url, key string
	}{
		{filepath.Join(dir, "x.mrw"), "x.mrw"},
		{"file://" + filepath.Join(dir, "x.mrw"), "x.mrw"},
		{"http://origin/c/x.mrw", "x.mrw"},
	} {
		st, key, err := OpenObjectURL(tc.url)
		if err != nil {
			t.Errorf("OpenObjectURL(%q): %v", tc.url, err)
			continue
		}
		if key != tc.key {
			t.Errorf("OpenObjectURL(%q) key = %q, want %q", tc.url, key, tc.key)
		}
		if st == nil {
			t.Errorf("OpenObjectURL(%q): nil store", tc.url)
		}
	}
	for _, bad := range []string{"", "http://origin/", "mem://x.mrw", fmt.Sprintf("%s%c", dir, os.PathSeparator)} {
		if _, _, err := OpenObjectURL(bad); err == nil {
			t.Errorf("OpenObjectURL(%q) accepted", bad)
		}
	}
}

// TestHTTPDefaultClientKeepsConnections checks the default client's pool
// bounds: after Open, two bursts of 8 concurrent ranged reads reuse the
// connections of the first burst, so the origin sees at most 8 dials in
// all. The origin holds each interior read until all 8 of its burst have
// arrived, so every burst really needs 8 connections at once. On
// net/http's default transport, which keeps 2 idle connections per host,
// the second burst dialed again.
func TestHTTPDefaultClientKeepsConnections(t *testing.T) {
	const burst = 8
	payload := make([]byte, 2*burst<<12+4096)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "obj"), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	var (
		dials   atomic.Int64
		mu      sync.Mutex
		arrived int
		release = make(chan struct{})
	)
	inner := OriginHandler(dir)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.Header.Get("Range"), "bytes=-") { // not the Open
			mu.Lock()
			ch := release
			if arrived++; arrived == burst {
				close(release)
				arrived, release = 0, make(chan struct{})
			}
			mu.Unlock()
			select {
			case <-ch:
			case <-time.After(10 * time.Second):
			}
		}
		inner.ServeHTTP(w, r)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	st, err := NewHTTP(srv.URL, HTTPOptions{FooterPrefetch: 4096, ReadAhead: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := st.Open(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for b := 0; b < 2; b++ {
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(off int64) {
				defer wg.Done()
				p := make([]byte, 16)
				if _, err := h.ReadAt(p, off); err != nil {
					t.Error(err)
				}
			}(int64(b*burst+i) << 12)
		}
		wg.Wait()
		t.Logf("after burst %d: %d dials", b+1, dials.Load())
	}
	if n := dials.Load(); n > burst {
		t.Fatalf("Open and two bursts of %d concurrent reads dialed %d connections, want at most %d", burst, n, burst)
	}
}
