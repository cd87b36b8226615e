package reader

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/index"
	"repro/internal/store"
)

// goldenFixtures are every committed container fixture; the storage-seam
// tests must serve each one byte-identically over every backend.
var goldenFixtures = []string{
	"golden-mixed-sz3-flate-v4.mrw",
	"golden-tac-sz3.mrc",
	"golden-linear-sz2-v3.mrw",
	"golden-tac-sz3-v3.mrw",
	"golden-tac-sz3-lanes4-v3.mrw",
	"golden-linear-zfp-v3.mrw",
}

// TestGoldenFixturesOverEveryBackend locks the tentpole invariant of the
// storage seam: every committed golden container decodes identically —
// every level, every sample — whether opened from a local directory, an
// in-memory object set, or a remote HTTP origin read with range requests.
func TestGoldenFixturesOverEveryBackend(t *testing.T) {
	dir := filepath.Join("..", "core", "testdata")

	fsStore, err := store.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMem()
	for _, name := range goldenFixtures {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		err = mem.Install(context.Background(), name, func(w io.Writer) error {
			_, werr := w.Write(blob)
			return werr
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(store.OriginHandler(dir))
	defer srv.Close()
	// Small prefetch/read-ahead so the remote reads genuinely exercise
	// ranged GETs instead of buffering each fixture whole.
	httpStore, err := store.NewHTTP(srv.URL, store.HTTPOptions{FooterPrefetch: 2048, ReadAhead: 2048})
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range goldenFixtures {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range []struct {
			label string
			st    store.Store
		}{{"fs", fsStore}, {"mem", mem}, {"http", httpStore}} {
			r, err := OpenStore(context.Background(), be.st, name)
			if err != nil {
				t.Fatalf("%s over %s: open: %v", name, be.label, err)
			}
			for l := range want.Levels {
				got, err := r.ReadLevel(l)
				if err != nil {
					t.Fatalf("%s over %s: level %d: %v", name, be.label, l, err)
				}
				if !got.Equal(want.Levels[l].Data) {
					t.Fatalf("%s over %s: level %d differs from core.Decompress", name, be.label, l)
				}
			}
			r.Close()
		}
	}
}

// gatedReaderAt blocks every ReadAt (once armed) until released: it holds
// the leading load inside its backend fetch while the other readers pile up
// behind it.
type gatedReaderAt struct {
	src     io.ReaderAt
	mu      sync.Mutex
	armed   bool
	release chan struct{}
}

func (g *gatedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	g.mu.Lock()
	armed, release := g.armed, g.release
	g.mu.Unlock()
	if armed {
		<-release
	}
	return g.src.ReadAt(p, off)
}

func (g *gatedReaderAt) arm() {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
}

// parkedOnLoad counts the goroutines blocked in the brick cache's Do
// waiting on a load in flight.
func parkedOnLoad() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "sync.(*WaitGroup).Wait") && strings.Contains(g, "cache.(*Cache).Do") {
			n++
		}
	}
	return n
}

// TestSingleflightThunderingHerd proves decode coalescing: many concurrent
// cold readers of the same brick cost exactly one backend decode — the
// rest join the in-flight decode instead of decoding redundantly — whether
// the brick cache is shared, has no budget (mrserve with caching off), or
// was turned off with WithCache(nil). Run under -race in CI, this also
// exercises the load/cache interleaving for data races.
func TestSingleflightThunderingHerd(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden-linear-sz2-v3.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cache  *cache.Cache
		cached bool // whether a later read is a hit
	}{
		{"shared", cache.New(8 << 20), true},
		{"budget0", cache.New(0), false},
		{"nil", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := &gatedReaderAt{src: bytes.NewReader(blob), release: make(chan struct{})}
			r, err := Open(gate, int64(len(blob)), WithCache(tc.cache))
			if err != nil {
				t.Fatal(err) // footer read happens before the gate is armed
			}
			gate.arm()

			const workers = 10
			fields := make([]*field.Field, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					fields[i], errs[i] = r.ReadLevel(0)
				}(i)
			}

			// Release the payload read only once every worker has recorded
			// its cache miss and all but the leader wait on its load, so
			// the leader's decode is the herd's only one. Should the frames
			// parkedOnLoad looks for be renamed, fail, not hang.
			misses, parked, deadline := int64(0), 0, time.Now().Add(10*time.Second)
			for {
				misses, parked = r.Stats().CacheMisses, parkedOnLoad()
				if misses >= workers && parked >= workers-1 || time.Now().After(deadline) {
					break
				}
				runtime.Gosched()
			}
			close(gate.release)
			wg.Wait()
			if misses < workers || parked < workers-1 {
				t.Fatalf("after 10s: %d of %d cache misses, %d of %d workers waiting on the load", misses, workers, parked, workers-1)
			}

			for i := range errs {
				if errs[i] != nil {
					t.Fatalf("worker %d: %v", i, errs[i])
				}
				if !fields[i].Equal(fields[0]) {
					t.Fatalf("worker %d decoded a different level image", i)
				}
			}
			st := r.Stats()
			if st.BackendDecodes != 1 {
				t.Fatalf("%d concurrent cold reads cost %d backend decodes, want exactly 1", workers, st.BackendDecodes)
			}
			if st.CoalescedWaits != workers-1 {
				t.Fatalf("CoalescedWaits = %d, want %d", st.CoalescedWaits, workers-1)
			}

			// A fresh read is a cache hit when there is a cache to hit.
			if _, err := r.ReadLevel(0); err != nil {
				t.Fatal(err)
			}
			want := int64(2)
			if tc.cached {
				want = 1
			}
			if st := r.Stats(); st.BackendDecodes != want {
				t.Fatalf("a later read brought backend decodes to %d, want %d", st.BackendDecodes, want)
			}
		})
	}
}

// TestColdReadCountsOneMiss: one cold level read is one lookup of the
// shared cache, so its miss count agrees with the reader's.
func TestColdReadCountsOneMiss(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden-linear-sz2-v3.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(8 << 20)
	r, err := Open(bytes.NewReader(blob), int64(len(blob)), WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadLevel(0); err != nil {
		t.Fatal(err)
	}
	if cst, rst := c.Stats(), r.Stats(); cst.Misses != 1 || rst.CacheMisses != 1 || cst.Hits != 0 {
		t.Fatalf("one cold read: cache %d misses / %d hits, reader %d misses; want 1 miss each",
			cst.Misses, cst.Hits, rst.CacheMisses)
	}
}

// TestHTTPReadHonorsDeadline checks that a request's deadline reaches the
// HTTP backend's ranged GETs: against an origin that stalls every ranged
// read for 3 s, a level read under a 100 ms deadline gives up promptly with
// context.DeadlineExceeded instead of waiting the origin out.
func TestHTTPReadHonorsDeadline(t *testing.T) {
	h := testHierarchy(t, 32, 5)
	blob := compress(t, h, core.Options{EB: h.Levels[0].Data.ValueRange() * 1e-3})
	body, ok := index.Locate(blob)
	if !ok {
		t.Fatal("no footer")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The open's suffix-range GET answers at once; every other ranged
		// read stalls until the origin's delay or the client hangs up.
		if !strings.HasPrefix(r.Header.Get("Range"), "bytes=-") {
			select {
			case <-time.After(3 * time.Second):
			case <-r.Context().Done():
				return
			}
		}
		http.ServeContent(w, r, "c.mrw", time.Time{}, bytes.NewReader(blob))
	}))
	defer srv.Close()
	// The prefetched tail covers exactly the footer, so the level's
	// streams need ranged GETs.
	st, err := store.NewHTTP(srv.URL, store.HTTPOptions{FooterPrefetch: int64(len(blob) - body)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(context.Background(), st, "c.mrw", WithCache(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = r.ReadLevelCtx(ctx, 0)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("ReadLevelCtx took %v under a 100ms deadline (err %v)", elapsed, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ReadLevelCtx err = %v, want context.DeadlineExceeded", err)
	}
}
