package sz3

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/field"
	"repro/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures from the current coder")

func goldenField() (*field.Field, float64) {
	// Non-power-of-two odd dimensions exercise the boundary-extrapolation
	// predictor paths on every level.
	f := synth.GenerateDims(synth.Nyx, 20, 17, 13, 7)
	return f, f.ValueRange() * 1e-3
}

// TestGoldenStream locks the on-disk format across entropy-stage rewrites:
// the committed fixtures were produced by the pre-rewrite coder, and the
// current encoder must reproduce them byte-for-byte (and decode them).
func TestGoldenStream(t *testing.T) {
	f, eb := goldenField()
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"linear", Options{EB: eb, Interp: Linear}},
		{"cubic-adaptive", Options{EB: eb, Interp: Cubic, LevelEB: AdaptiveLevelEB(eb, 2.25, 8)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob, err := Compress(nil, f, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", fmt.Sprintf("golden-%s.sz3", tc.name))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read fixture (regenerate with -update): %v", err)
			}
			if !bytes.Equal(blob, want) {
				t.Fatalf("encoder output diverged from golden fixture: got %d bytes, fixture %d bytes", len(blob), len(want))
			}
			g, err := Decompress(nil, want)
			if err != nil {
				t.Fatalf("decode fixture: %v", err)
			}
			for i := range f.Data {
				d := g.Data[i] - f.Data[i]
				if d < -eb || d > eb {
					t.Fatalf("sample %d outside error bound: |%g| > %g", i, d, eb)
				}
			}
		})
	}
}
