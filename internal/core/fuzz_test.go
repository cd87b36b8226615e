package core

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/index"
)

// allocatedBytes returns the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzBuildIndex hammers the body scan — the header, block lists, box
// geometry and stream walk of a container with no usable footer. It runs no
// codec. The scan must reject or accept, never panic, never allocate more
// than the bytes in front of it justify, and an index it accepts must be
// exactly what a footer written from it reads back as.
func FuzzBuildIndex(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden-*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden containers found: %v", err)
	}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		if body, ok := index.Locate(blob); ok {
			blob = blob[:body]
		}
		f.Add(blob)
	}
	// A body whose SZ2 block size takes two uvarint bytes.
	h := amrHierarchy(f, 64, 23)
	opt := SZ3MROptions(h.Levels[0].Data.ValueRange() * 1e-3)
	opt.SZ2BlockSize = 200
	c, err := CompressHierarchy(h, opt)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stripFooter(f, c.Blob))
	// A header for a 2048³ domain at B = 8 whose one level claims all 2²⁴
	// blocks with no byte behind the count.
	hollow := &index.Index{Nx: 2048, Ny: 2048, Nz: 2048, BlockB: 8, Levels: make([]index.Level, 1)}
	f.Add(binary.AppendUvarint(hollow.AppendHeader(append([]byte(containerMagic), containerVersion)), 1<<24))

	f.Add(nanBoundBody())

	f.Fuzz(func(t *testing.T, blob []byte) { checkBuildIndex(t, blob) })
}

// nanBoundBody is a body whose header's error bound is NaN: an 8³ domain at
// B = 8 whose one merged level claims the single unit block and carries an
// empty stream. The footer written from its scan must read the same NaN back.
func nanBoundBody() []byte {
	nan := &index.Index{Opts: index.Opts{EB: math.NaN()}, Nx: 8, Ny: 8, Nz: 8, BlockB: 8, Levels: make([]index.Level, 1)}
	// Block count 1, block delta 0, not padded, stream length 0.
	return append(nan.AppendHeader(append([]byte(containerMagic), containerVersion)), 1, 0, 0, 0)
}

// checkBuildIndex runs the body scan on blob. It fails t if the scan
// allocates more than the body justifies, or if a footer written from an
// accepted scan does not read back bit for bit. It reports whether the scan
// accepted the body.
func checkBuildIndex(t *testing.T, blob []byte) bool {
	t.Helper()
	var ix *index.Index
	var err error
	if n := allocatedBytes(func() { ix, err = BuildIndex(blob) }); n > 64*uint64(len(blob))+1<<20 {
		t.Fatalf("BuildIndex allocated %d bytes for a %d-byte body", n, len(blob))
	}
	if err != nil {
		return false
	}
	// The footer path of loadIndex leaves SectionCRC unset; a fallback to
	// the body scan would set it and fail the comparison.
	back, err := loadIndex(ix.AppendFooter(slices.Clone(blob)))
	if err != nil {
		t.Fatalf("footer written from an accepted scan does not load: %v", err)
	}
	want := *ix
	want.SectionCRC = 0
	// The header's floats compare by their bits: a NaN bound reads back
	// as the same NaN, which == calls different.
	floatBits := func(o *index.Opts) [3]uint64 {
		b := [3]uint64{math.Float64bits(o.EB), math.Float64bits(o.Alpha), math.Float64bits(o.Beta)}
		o.EB, o.Alpha, o.Beta = 0, 0, 0
		return b
	}
	if floatBits(&back.Opts) != floatBits(&want.Opts) || !reflect.DeepEqual(back, &want) {
		t.Fatalf("footer reads back a different index:\nscan   %+v\nfooter %+v", &want, back)
	}
	return true
}

// TestBuildIndexNaNBound: the NaN-bound seed of FuzzBuildIndex is a body the
// scan accepts, so it reaches the bit-wise comparison of its footer, and
// that comparison sees the NaN.
func TestBuildIndexNaNBound(t *testing.T) {
	body := nanBoundBody()
	if !checkBuildIndex(t, body) {
		_, err := BuildIndex(body)
		t.Fatalf("BuildIndex rejects the NaN-bound body: %v", err)
	}
	ix, _ := BuildIndex(body)
	if !math.IsNaN(ix.Opts.EB) {
		t.Fatalf("scan reads bound %v, want NaN", ix.Opts.EB)
	}
}
