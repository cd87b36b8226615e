package reader

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
)

// TestV2GoldenFixtureThroughReader locks the committed pre-index (v2)
// container against the random-access path: it must open via the
// sequential-scan fallback and serve every level exactly as
// core.Decompress reads it.
func TestV2GoldenFixtureThroughReader(t *testing.T) {
	path := filepath.Join("..", "core", "testdata", "golden-tac-sz3.mrc")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, blob)
	if !r.FellBack() {
		t.Fatal("v2 golden opened without the fallback scan")
	}
	if r.NumLevels() != len(want.Levels) {
		t.Fatalf("NumLevels = %d, want %d", r.NumLevels(), len(want.Levels))
	}
	for l := range want.Levels {
		got, err := r.ReadLevel(l)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want.Levels[l].Data) {
			t.Fatalf("level %d of the v2 golden differs between reader and Decompress", l)
		}
	}

	// The v3 golden serves identically through the indexed path.
	v3, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden-tac-sz3-v3.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	r3 := mustOpen(t, v3)
	if r3.FellBack() {
		t.Fatal("the v3 golden took the fallback path")
	}
	for l := range want.Levels {
		got, err := r3.ReadLevel(l)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want.Levels[l].Data) {
			t.Fatalf("level %d differs between the v3 and the v2 golden", l)
		}
	}
}

// TestMixedCodecGoldenThroughReader locks the mixed-codec (format v4)
// fixture against the random-access path: each level must decode under its
// own codec — sz3 for the fine level, lossless flate for the coarse one —
// both through the index footer and through the sequential-scan fallback
// (which must recover the per-stream codec bytes from the v4 body).
func TestMixedCodecGoldenThroughReader(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden-mixed-sz3-flate-v4.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}

	// Indexed path: codecs come from the footer's per-stream bytes.
	r := mustOpen(t, blob)
	if r.FellBack() {
		t.Fatal("v4 golden took the fallback path")
	}
	for l := range want.Levels {
		got, err := r.ReadLevel(l)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want.Levels[l].Data) {
			t.Fatalf("level %d differs between reader and Decompress", l)
		}
	}

	// Footer stripped: the fallback body scan must still find each
	// stream's codec (the v4 per-stream codec byte).
	body, ok := index.Locate(blob)
	if !ok {
		t.Fatal("v4 golden has no index footer")
	}
	rs := mustOpen(t, blob[:body])
	if !rs.FellBack() {
		t.Fatal("footer-stripped v4 golden opened without the fallback scan")
	}
	for l := range want.Levels {
		got, err := rs.ReadLevel(l)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want.Levels[l].Data) {
			t.Fatalf("level %d differs between fallback reader and Decompress", l)
		}
	}
}

// TestDoubleClaimedBlocksNeverDecode re-footers two goldens so that one unit
// block is claimed twice — within one merged level's block list, by two
// levels, or by two overlapping TAC boxes of one level — with every CRC
// recomputed. index.Parse must reject such a footer, and Decompress and Open
// must then decode the intact body: the pristine hierarchy, never one in
// which a block is written twice and another is owned by no level.
func TestDoubleClaimedBlocksNeverDecode(t *testing.T) {
	for _, tc := range []struct {
		name, golden string
		claim        func(t *testing.T, ix *index.Index)
	}{
		{"one merged level", "golden-linear-sz2-v3.mrw", func(t *testing.T, ix *index.Index) {
			ix.Levels[0].Blocks[1] = ix.Levels[0].Blocks[0]
		}},
		{"two levels", "golden-linear-sz2-v3.mrw", func(t *testing.T, ix *index.Index) {
			ix.Levels[1].Blocks[0] = ix.Levels[0].Blocks[0]
		}},
		{"two TAC boxes", "golden-tac-sz3-v3.mrw", func(t *testing.T, ix *index.Index) {
			nbx, nby, nbz := ix.Nx/ix.BlockB, ix.Ny/ix.BlockB, ix.Nz/ix.BlockB
			for _, lv := range ix.Levels {
				for _, a := range lv.Streams {
					for _, b := range lv.Streams {
						ga, gb := ix.Streams[a].Geom, &ix.Streams[b].Geom
						if a != b && ga.X0+gb.WX <= nbx && ga.Y0+gb.WY <= nby && ga.Z0+gb.WZ <= nbz {
							gb.X0, gb.Y0, gb.Z0 = ga.X0, ga.Y0, ga.Z0
							return
						}
					}
				}
			}
			t.Fatal("no box fits at another's origin")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("..", "core", "testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := index.ReadFrom(bytes.NewReader(blob), int64(len(blob)))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := index.Locate(blob)
			tc.claim(t, ix)
			bad := ix.AppendFooter(append([]byte(nil), blob[:body]...))
			if _, err := index.ReadFrom(bytes.NewReader(bad), int64(len(bad))); err == nil {
				t.Fatal("index.ReadFrom accepted a block claimed twice")
			}

			got, err := core.Decompress(bad)
			if err == nil {
				if err := got.Validate(); err != nil {
					t.Fatalf("Decompress: %v", err)
				}
				for l := range want.Levels {
					if !got.Levels[l].Data.Equal(want.Levels[l].Data) || !slices.Equal(got.Levels[l].Owned, want.Levels[l].Owned) {
						t.Fatalf("Decompress: level %d differs from the pristine decode", l)
					}
				}
			}
			r, err := Open(bytes.NewReader(bad), int64(len(bad)))
			if err != nil {
				return
			}
			if !r.FellBack() {
				t.Fatal("Open used the double-claiming footer")
			}
			for l := range want.Levels {
				lf, err := r.ReadLevel(l)
				if err != nil {
					t.Fatal(err)
				}
				if !lf.Equal(want.Levels[l].Data) {
					t.Fatalf("Open: level %d differs from the pristine decode", l)
				}
			}
		})
	}
}

// TestFooterLeavingABlockUnclaimedFallsBack: a footer that passes its CRC
// but leaves a unit block to no stream — here the TAC golden re-footered
// without level 0's last box — is rejected like a corrupt one, so both
// core.Decompress and the reader scan the intact body and decode the
// container pristine instead of a hierarchy with a hole in it.
func TestFooterLeavingABlockUnclaimedFallsBack(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden-tac-sz3-v3.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := index.Locate(blob)
	if !ok {
		t.Fatal("golden has no footer")
	}
	ix, err := index.ReadFrom(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	l0 := &ix.Levels[0]
	l0.Streams = l0.Streams[:len(l0.Streams)-1]
	holed := ix.AppendFooter(slices.Clone(blob[:body]))
	if _, err := index.ReadFrom(bytes.NewReader(holed), int64(len(holed))); err == nil {
		t.Fatal("a footer leaving level 0's last box unclaimed was accepted")
	}

	got, err := core.Decompress(holed)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	r := mustOpen(t, holed)
	if !r.FellBack() {
		t.Fatal("the reader trusted a footer that leaves a block unclaimed")
	}
	for l := range want.Levels {
		if !got.Levels[l].Data.Equal(want.Levels[l].Data) {
			t.Fatalf("Decompress: level %d differs from the pristine golden", l)
		}
		f, err := r.ReadLevel(l)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(want.Levels[l].Data) {
			t.Fatalf("reader: level %d differs from the pristine golden", l)
		}
	}
}
