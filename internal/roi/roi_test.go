package roi

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/synth"
)

// scanMask returns Scan's ROI mask for f.
func scanMask(t *testing.T, f *field.Field, opt Options) []bool {
	t.Helper()
	s, err := Scan(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s.Mask
}

func TestSelectTopFraction(t *testing.T) {
	f := synth.Generate(synth.Nyx, 64, 1)
	mask := scanMask(t, f, Options{BlockB: 16, TopFrac: 0.25})
	kept := 0
	for _, m := range mask {
		if m {
			kept++
		}
	}
	if kept != 16 { // 64 blocks total, 25%
		t.Fatalf("kept %d blocks, want 16", kept)
	}
}

func TestSelectPicksHighRangeBlocks(t *testing.T) {
	// A field that is constant except one block with huge range: that block
	// must be selected.
	f := field.New(32, 32, 32)
	f.Set(20, 20, 20, 100) // block (1,1,1) at BlockB=16 contains this spike
	mask := scanMask(t, f, Options{BlockB: 16, TopFrac: 0.125})
	// Flat index of block (1,1,1) in a 2x2x2 block grid = 1 + 2*(1 + 2*1) = 7.
	if !mask[7] {
		t.Fatal("spike block not selected as ROI")
	}
}

func TestSelectValidation(t *testing.T) {
	f := field.New(30, 32, 32)
	if _, err := Scan(f, Options{BlockB: 16}); err == nil {
		t.Fatal("non-multiple dims accepted")
	}
	g := field.New(32, 32, 32)
	if _, err := Scan(g, Options{BlockB: 16, TopFrac: 1.5}); err == nil {
		t.Fatal("TopFrac > 1 accepted")
	}
	if _, err := Scan(g, Options{BlockB: 16, TopFrac: math.NaN()}); err == nil {
		t.Fatal("TopFrac NaN accepted")
	}
	if _, err := Scan(field.New(48, 48, 48), Options{BlockB: 12}); err == nil {
		t.Fatal("BlockB 12 accepted")
	}
}

func TestConvertStructure(t *testing.T) {
	f := synth.Generate(synth.Nyx, 64, 2)
	h, err := Convert(f, Options{BlockB: 16, TopFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) != 2 {
		t.Fatalf("levels = %d, want 2", len(h.Levels))
	}
	if d := h.Density(0); math.Abs(d-0.5) > 0.01 {
		t.Fatalf("fine density %v, want 0.5", d)
	}
	// ROI blocks must be preserved exactly in the flattened reconstruction.
	g := h.Flatten()
	for _, bc := range h.OwnedBlocks(0) {
		a := f.SubBlock(bc[0]*16, bc[1]*16, bc[2]*16, 16, 16, 16)
		b := g.SubBlock(bc[0]*16, bc[1]*16, bc[2]*16, 16, 16, 16)
		if !a.Equal(b) {
			t.Fatal("ROI block altered by conversion")
		}
	}
}

// TestFig4ROIQuality reproduces the claim of Fig. 4: a modest ROI fraction
// of a halo-rich cosmology field reconstructs with near-perfect SSIM.
func TestFig4ROIQuality(t *testing.T) {
	f := synth.Generate(synth.Nyx, 64, 3)
	rec, err := ROIOnly(f, Options{BlockB: 16, TopFrac: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	ssim := metrics.SSIM3D(f, rec)
	if ssim < 0.95 {
		t.Fatalf("ROI reconstruction SSIM %.4f, want ≥ 0.95 (paper: 0.99995)", ssim)
	}
}

func TestMeasureStorageRatio(t *testing.T) {
	f := synth.Generate(synth.Nyx, 64, 4)
	st, err := Measure(f, Options{BlockB: 16, TopFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// 50% full + 50% at 1/8 → sample ratio 0.5 + 0.0625 = 0.5625.
	if math.Abs(st.SampleRatio-0.5625) > 1e-9 {
		t.Fatalf("sample ratio %v, want 0.5625", st.SampleRatio)
	}
	if math.Abs(st.BlocksKept-0.5) > 0.01 {
		t.Fatalf("blocks kept %v", st.BlocksKept)
	}
	if math.Abs(st.StorageRatio-1/0.5625) > 1e-9 {
		t.Fatalf("storage ratio %v", st.StorageRatio)
	}
}

func TestDefaultsApplied(t *testing.T) {
	f := synth.Generate(synth.Nyx, 32, 5)
	h, err := Convert(f, Options{}) // BlockB 16, TopFrac 0.5
	if err != nil {
		t.Fatal(err)
	}
	if h.BlockB != 16 {
		t.Fatalf("default BlockB = %d", h.BlockB)
	}
}
