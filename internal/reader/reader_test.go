package reader

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/synth"
)

func testHierarchy(t *testing.T, size int, seed int64) *grid.Hierarchy {
	t.Helper()
	f := synth.Generate(synth.Nyx, size, seed)
	h, err := grid.BuildAMR(f, 16, []float64{0.3, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func compress(t *testing.T, h *grid.Hierarchy, opt core.Options) []byte {
	t.Helper()
	c, err := core.CompressHierarchy(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c.Blob
}

func open(t *testing.T, blob []byte, opts ...Option) *Reader {
	t.Helper()
	r, err := Open(bytes.NewReader(blob), int64(len(blob)), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testOptions(eb float64) map[string]core.Options {
	return map[string]core.Options{
		"linear-pad-eb": {EB: eb, Arrangement: core.ArrangeLinear, Pad: true, AdaptiveEB: true},
		"stack":         {EB: eb, Arrangement: core.ArrangeStack},
		"tac":           {EB: eb, Arrangement: core.ArrangeTAC},
		"zorder1d":      {EB: eb, Arrangement: core.ArrangeZOrder1D},
		"sz2":           {EB: eb, Compressor: core.SZ2},
		"zfp":           {EB: eb, Compressor: core.ZFP},
	}
}

// TestReadLevelMatchesDecompress locks random access against the reference
// sequential decoder: for every arrangement and backend, ReadLevel must
// reproduce exactly the level arrays core.Decompress builds.
func TestReadLevelMatchesDecompress(t *testing.T) {
	h := testHierarchy(t, 32, 3)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	for name, opt := range testOptions(eb) {
		blob := compress(t, h, opt)
		want, err := core.Decompress(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := open(t, blob)
		if r.FellBack() {
			t.Fatalf("%s: v3 container took the fallback path", name)
		}
		if r.NumLevels() != len(want.Levels) {
			t.Fatalf("%s: %d levels, want %d", name, r.NumLevels(), len(want.Levels))
		}
		for l := range want.Levels {
			got, err := r.ReadLevel(l)
			if err != nil {
				t.Fatalf("%s: ReadLevel(%d): %v", name, l, err)
			}
			if !got.Equal(want.Levels[l].Data) {
				t.Fatalf("%s: level %d differs from sequential decode", name, l)
			}
		}
	}
}

// TestReadLevelDecodesOnlyRequestedStreams is the core promise of the
// subsystem, proven by the instrumented backend-decode counter: reading
// one level decodes that level's streams and nothing else, and fetches
// only that level's compressed bytes.
func TestReadLevelDecodesOnlyRequestedStreams(t *testing.T) {
	h := testHierarchy(t, 32, 4)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	for _, name := range []string{"linear-pad-eb", "tac"} {
		opt := testOptions(eb)[name]
		blob := compress(t, h, opt)
		r := open(t, blob)
		ix := r.Index()
		total := len(ix.Streams)
		coarsest := r.NumLevels() - 1
		wantStreams := int64(len(ix.Levels[coarsest].Streams))
		if wantStreams == 0 || int(wantStreams) >= total {
			t.Fatalf("%s: degenerate container (%d of %d streams on coarsest level)", name, wantStreams, total)
		}
		if _, err := r.ReadLevel(coarsest); err != nil {
			t.Fatal(err)
		}
		st := r.Stats()
		if st.BackendDecodes != wantStreams {
			t.Fatalf("%s: ReadLevel(%d) decoded %d streams, want exactly %d (container has %d)",
				name, coarsest, st.BackendDecodes, wantStreams, total)
		}
		if st.BytesRead != ix.CompressedBytes(coarsest) {
			t.Fatalf("%s: read %d compressed bytes, level holds %d", name, st.BytesRead, ix.CompressedBytes(coarsest))
		}
	}
}

// TestCachedReadsSkipDecode locks the brick cache: a repeated read must
// not touch the backend again.
func TestCachedReadsSkipDecode(t *testing.T) {
	h := testHierarchy(t, 32, 5)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	for _, name := range []string{"linear-pad-eb", "tac"} {
		blob := compress(t, h, testOptions(eb)[name])
		r := open(t, blob)
		a, err := r.ReadLevel(0)
		if err != nil {
			t.Fatal(err)
		}
		afterCold := r.Stats()
		b, err := r.ReadLevel(0)
		if err != nil {
			t.Fatal(err)
		}
		st := r.Stats()
		if st.BackendDecodes != afterCold.BackendDecodes || st.BytesRead != afterCold.BytesRead {
			t.Fatalf("%s: cached re-read decoded again (%+v -> %+v)", name, afterCold, st)
		}
		if st.CacheHits == 0 {
			t.Fatalf("%s: no cache hits recorded", name)
		}
		if !a.Equal(b) {
			t.Fatalf("%s: cached read differs", name)
		}

		// With caching disabled every read pays the backend again.
		rc := open(t, blob, WithCache(nil))
		rc.ReadLevel(0)
		first := rc.Stats().BackendDecodes
		rc.ReadLevel(0)
		if got := rc.Stats().BackendDecodes; got != 2*first {
			t.Fatalf("%s: cacheless re-read decoded %d streams, want %d", name, got, 2*first)
		}
	}
}

// TestReadBoxMatchesExtract locks per-box random access against the
// decoded hierarchy.
func TestReadBoxMatchesExtract(t *testing.T) {
	h := testHierarchy(t, 32, 6)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	blob := compress(t, h, testOptions(eb)["tac"])
	want, err := core.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	r := open(t, blob)
	for l := 0; l < r.NumLevels(); l++ {
		for b := range r.Index().Levels[l].Streams {
			f, geom, err := r.ReadBox(l, b)
			if err != nil {
				t.Fatalf("ReadBox(%d,%d): %v", l, b, err)
			}
			if !f.Equal(layout.ExtractBox(want, l, geom)) {
				t.Fatalf("box (%d,%d) differs from sequential decode", l, b)
			}
		}
	}
	if _, _, err := r.ReadBox(0, 9999); err == nil {
		t.Fatal("out-of-range box accepted")
	}
	rl := open(t, compress(t, h, testOptions(eb)["linear-pad-eb"]))
	if _, _, err := rl.ReadBox(0, 0); err == nil {
		t.Fatal("ReadBox on a merged container accepted")
	}
}

// TestReadSliceMatchesLevel locks every axis of ReadSlice against slicing
// the full level array, and — for TAC — proves non-intersecting boxes are
// not decoded.
func TestReadSliceMatchesLevel(t *testing.T) {
	h := testHierarchy(t, 32, 7)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	for name, opt := range testOptions(eb) {
		blob := compress(t, h, opt)
		r := open(t, blob)
		for l := 0; l < r.NumLevels(); l++ {
			lf, err := r.ReadLevel(l)
			if err != nil {
				t.Fatal(err)
			}
			for _, axis := range []Axis{AxisX, AxisY, AxisZ} {
				dim := []int{lf.Nx, lf.Ny, lf.Nz}[axis]
				for _, k := range []int{0, dim / 2, dim - 1} {
					got, err := r.ReadSlice(axis, k, l)
					if err != nil {
						t.Fatalf("%s: ReadSlice(%v,%d,%d): %v", name, axis, k, l, err)
					}
					var want *field.Field
					switch axis {
					case AxisX:
						want = lf.SubBlock(k, 0, 0, 1, lf.Ny, lf.Nz)
					case AxisY:
						want = lf.SubBlock(0, k, 0, lf.Nx, 1, lf.Nz)
					default:
						want = lf.SliceZ(k)
					}
					if !got.Equal(want) {
						t.Fatalf("%s: slice %v=%d level %d differs", name, axis, k, l)
					}
				}
			}
		}
		if _, err := r.ReadSlice(AxisZ, 1<<20, 0); err == nil {
			t.Fatalf("%s: out-of-range slice accepted", name)
		}
	}
}

// TestSliceDecodesOnlyIntersectingBoxes proves the TAC slice path skips
// boxes the plane misses.
func TestSliceDecodesOnlyIntersectingBoxes(t *testing.T) {
	h := testHierarchy(t, 32, 8)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	blob := compress(t, h, testOptions(eb)["tac"])
	r := open(t, blob, WithCache(nil)) // count every decode
	// Find a level and plane where some boxes miss.
	found := false
	ix := r.Index()
	for l := 0; l < r.NumLevels() && !found; l++ {
		streams := ix.Levels[l].Streams
		if len(streams) < 2 {
			continue
		}
		u := ix.UnitBlockSize(l)
		intersecting := 0
		for _, si := range streams {
			g := ix.Streams[si].Geom
			if g.Z0*u <= 0 && 0 < (g.Z0+g.WZ)*u {
				intersecting++
			}
		}
		if intersecting == len(streams) {
			continue
		}
		before := r.Stats().BackendDecodes
		if _, err := r.ReadSlice(AxisZ, 0, l); err != nil {
			t.Fatal(err)
		}
		decoded := r.Stats().BackendDecodes - before
		if decoded != int64(intersecting) {
			t.Fatalf("slice z=0 level %d decoded %d boxes, %d intersect (of %d)",
				l, decoded, intersecting, len(streams))
		}
		found = true
	}
	if !found {
		t.Skip("no level with non-intersecting boxes in this fixture")
	}
}

// TestUnindexedFallback locks the compatibility path: a v2 container (no
// footer) opens via the sequential scan and serves identical data.
func TestUnindexedFallback(t *testing.T) {
	h := testHierarchy(t, 32, 9)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	for _, name := range []string{"linear-pad-eb", "tac"} {
		blob := compress(t, h, testOptions(eb)[name])
		body, ok := index.Locate(blob)
		if !ok {
			t.Fatal("no footer on v3 container")
		}
		v2 := append([]byte(nil), blob[:body]...)
		v2[4] = 2
		r2 := open(t, v2)
		if !r2.FellBack() {
			t.Fatalf("%s: unindexed container did not fall back", name)
		}
		r3 := open(t, blob)
		for l := 0; l < r3.NumLevels(); l++ {
			a, err := r2.ReadLevel(l)
			if err != nil {
				t.Fatal(err)
			}
			b, err := r3.ReadLevel(l)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Equal(b) {
				t.Fatalf("%s: fallback level %d differs from indexed read", name, l)
			}
		}
	}
}

// TestCorruptFooterFallsBack locks the degradation guarantee: a v3
// container whose footer fails its CRC (intact trailing magic, flipped
// section bit) must still open via the sequential scan — the body is
// untouched, so the data must not become unreadable.
func TestCorruptFooterFallsBack(t *testing.T) {
	h := testHierarchy(t, 32, 11)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	blob := compress(t, h, testOptions(eb)["linear-pad-eb"])
	body, ok := index.Locate(blob)
	if !ok {
		t.Fatal("no footer")
	}
	mut := append([]byte(nil), blob...)
	mut[body+6] ^= 0x10 // inside the index section, magic and trailer intact
	if _, ok := index.Locate(mut); ok {
		t.Fatal("corruption not detected by Locate")
	}
	r := open(t, mut)
	if !r.FellBack() {
		t.Fatal("corrupt footer did not fall back to the sequential scan")
	}
	want := open(t, blob)
	for l := 0; l < want.NumLevels(); l++ {
		a, err := r.ReadLevel(l)
		if err != nil {
			t.Fatal(err)
		}
		b, err := want.ReadLevel(l)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("level %d differs after corrupt-footer fallback", l)
		}
	}
}

// TestOpenRejectsGarbage: Open must error (never panic) on junk.
func TestOpenRejectsGarbage(t *testing.T) {
	for _, blob := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0x5A}, 300), []byte("MRWF\x03short")} {
		if _, err := Open(bytes.NewReader(blob), int64(len(blob))); err == nil {
			t.Fatalf("garbage of %d bytes opened", len(blob))
		}
	}
}

// TestConcurrentReads hammers one shared reader (and shared cache) from
// many goroutines; under -race this is the concurrency proof backing the
// server.
func TestConcurrentReads(t *testing.T) {
	h := testHierarchy(t, 32, 10)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	shared := cache.New(64<<20, 8)
	for _, name := range []string{"linear-pad-eb", "tac"} {
		blob := compress(t, h, testOptions(eb)[name])
		r := open(t, blob, WithCache(shared), WithCacheKey("conc-"+name))
		want, err := core.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					l := (g + i) % r.NumLevels()
					f, err := r.ReadLevel(l)
					if err != nil {
						errs <- err
						return
					}
					if !f.Equal(want.Levels[l].Data) {
						errs <- fmt.Errorf("level %d differs under concurrency", l)
						return
					}
					if _, err := r.ReadSlice(AxisZ, i%4, l); err != nil {
						errs <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestBricksAreKeyedByContainerVersion locks replace coherence where it is
// enforced — in the brick key. Readers sharing one cache and one WithCacheKey
// namespace (what a serving tier has across a replace of one field id) must
// never see a brick of different bytes, and readers of the same bytes must
// share theirs.
func TestBricksAreKeyedByContainerVersion(t *testing.T) {
	hA, hB := testHierarchy(t, 32, 10), testHierarchy(t, 32, 11)
	opt := testOptions(hA.Levels[0].Data.ValueRange() * 1e-3)["linear-pad-eb"]
	blobA, blobB := compress(t, hA, opt), compress(t, hB, opt)
	level0 := func(blob []byte) *field.Field {
		h, err := core.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		return h.Levels[0].Data
	}
	wantA, wantB := level0(blobA), level0(blobB)
	if wantA.Equal(wantB) {
		t.Fatal("the test needs two containers with different level-0 data")
	}
	// Three readers over one shared memory brick cache.
	t.Run("memory", func(t *testing.T) {
		shared := []Option{WithCache(cache.New(64<<20, 1)), WithCacheKey("field")}
		a1, b, a2 := open(t, blobA, shared...), open(t, blobB, shared...), open(t, blobA, shared...)
		if a1.Version() != a2.Version() || a1.Version() == b.Version() {
			t.Fatalf("versions: same bytes %q / %q, different bytes %q", a1.Version(), a2.Version(), b.Version())
		}
		read := func(r *Reader, want *field.Field, who string) {
			t.Helper()
			got, err := r.ReadLevel(0)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s got a brick of another container's bytes", who)
			}
		}
		read(a1, wantA, "the first reader")
		read(b, wantB, "a reader of different bytes in the same namespace")
		read(a2, wantA, "a second reader of the first bytes")
		read(b, wantB, "the reader of different bytes, re-reading")
		if n := a1.Stats().BackendDecodes + a2.Stats().BackendDecodes; n != 1 {
			t.Fatalf("two readers of the same bytes cost %d backend decodes, want 1 in total", n)
		}
		if n := b.Stats().BackendDecodes; n != 1 {
			t.Fatalf("the reader of different bytes decoded %d times, want 1", n)
		}
	})
}
