package reader

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/field"
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
			r, err := OpenStore(be.st, name)
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
// the singleflight leader inside its backend fetch while the other readers
// pile up behind the flight.
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

// TestSingleflightThunderingHerd proves decode coalescing: many concurrent
// cold readers of the same brick cost exactly one backend decode — the
// rest join the in-flight decode (or are served by the cache it populated)
// instead of decoding redundantly. Run under -race in CI, this also
// exercises the flight/cache interleaving for data races.
func TestSingleflightThunderingHerd(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden-linear-sz2-v3.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedReaderAt{src: bytes.NewReader(blob), release: make(chan struct{})}
	r, err := Open(gate, int64(len(blob)), WithCache(cache.New(8<<20, 4)))
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

	// Release the payload read only once every worker has recorded its
	// cache miss — i.e. all of them are past the cache probe and heading
	// into the flight, so the leader's decode is the herd's only one.
	for r.Stats().CacheMisses < workers {
		runtime.Gosched()
	}
	close(gate.release)
	wg.Wait()

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
	if st.CoalescedWaits < workers-2 {
		t.Fatalf("CoalescedWaits = %d, want at least %d of %d readers coalesced",
			st.CoalescedWaits, workers-2, workers)
	}

	// A fresh read is now a pure cache hit: still one decode total.
	if _, err := r.ReadLevel(0); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.BackendDecodes != 1 {
		t.Fatalf("warm read re-decoded: %d backend decodes", st.BackendDecodes)
	}
}

// TestDiskTierThroughReader locks the spill round trip at the reader
// level: a brick evicted from the memory LRU comes back from the disk
// tier — counted as a DiskTierHit, without a backend re-decode — and is
// promoted back into memory.
func TestDiskTierThroughReader(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden-linear-sz2-v3.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	// A memory budget big enough for one level but not two forces the
	// first level out when the second is decoded.
	c := cache.New(int64(want.Levels[0].Data.Bytes())+512, 1)
	if _, err := EnableDiskTier(c, t.TempDir(), 64<<20); err != nil {
		t.Fatal(err)
	}
	r := open(t, blob, WithCache(c))

	l0, err := r.ReadLevel(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadLevel(1); err != nil {
		t.Fatal(err)
	}
	decodes := r.Stats().BackendDecodes

	got, err := r.ReadLevel(0) // evicted from memory: must reload from disk
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(l0) {
		t.Fatal("disk-tier reload differs from the original decode")
	}
	st := r.Stats()
	if st.BackendDecodes != decodes {
		t.Fatalf("disk-tier reload re-decoded: %d -> %d backend decodes", decodes, st.BackendDecodes)
	}
	if st.DiskTierHits == 0 {
		t.Fatal("no DiskTierHits recorded across an eviction round trip")
	}
}
