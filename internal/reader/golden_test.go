package reader

import (
	"os"
	"path/filepath"
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
	r := open(t, blob)
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

	// The v3 golden, and its twin written with the legacy 4-lane
	// interleaved entropy format, serve identically through the indexed path.
	for _, name := range []string{"golden-tac-sz3-v3.mrw", "golden-tac-sz3-lanes4-v3.mrw"} {
		v3, err := os.ReadFile(filepath.Join("..", "core", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		r3 := open(t, v3)
		if r3.FellBack() {
			t.Fatalf("%s took the fallback path", name)
		}
		for l := range want.Levels {
			got, err := r3.ReadLevel(l)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want.Levels[l].Data) {
				t.Fatalf("level %d differs between %s and the v2 golden", l, name)
			}
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
	r := open(t, blob)
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
	rs := open(t, blob[:body])
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
