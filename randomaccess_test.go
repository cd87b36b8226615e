package repro

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/synth"
)

// TestRandomAccessPublicAPI exercises the exported random-access surface
// end to end: compress a field, write the container to disk, reopen it by
// path, and check level and slice reads against the sequential decode.
func TestRandomAccessPublicAPI(t *testing.T) {
	f := synth.Generate(synth.Nyx, 32, 21)
	res, err := CompressUniform(f, Options{RelEB: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "field.mrw")
	if err := os.WriteFile(path, res.Blob, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenContainerURL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	want, err := Decompress(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumLevels() != len(want.Levels) {
		t.Fatalf("NumLevels = %d, want %d", r.NumLevels(), len(want.Levels))
	}
	if nx, ny, nz := r.Dims(); nx != f.Nx || ny != f.Ny || nz != f.Nz {
		t.Fatalf("Dims = %dx%dx%d", nx, ny, nz)
	}
	for l := 0; l < r.NumLevels(); l++ {
		got, err := r.ReadLevel(l)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want.Levels[l].Data) {
			t.Fatalf("level %d differs from Decompress", l)
		}
	}
	plane, err := r.ReadSlice(AxisZ, f.Nz/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plane.Equal(want.Levels[0].Data.SliceZ(f.Nz / 2)) {
		t.Fatal("z slice differs from Decompress")
	}
	if st := r.Stats(); st.BackendDecodes == 0 {
		t.Fatal("no backend decodes recorded")
	}

	// The shared-cache constructor serves the same data.
	c := NewBrickCache(32 << 20)
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := OpenContainerCached(fh, st.Size(), c, "field")
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := rc.ReadLevel(rc.NumLevels() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if !coarse.Equal(want.Levels[len(want.Levels)-1].Data) {
		t.Fatal("cached open: coarsest level differs")
	}
	if c.Stats().Entries == 0 {
		t.Fatal("shared cache not populated")
	}
}
