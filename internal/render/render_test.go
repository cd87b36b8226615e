package render

import (
	"image"
	"image/color"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/uncertainty"
)

func TestColormapEndpoints(t *testing.T) {
	for name, cm := range map[string]Colormap{"viridis": Viridis, "coolwarm": CoolWarm, "gray": Gray} {
		lo := cm(0)
		hi := cm(1)
		if lo == hi {
			t.Fatalf("%s: endpoints identical", name)
		}
		if cm(-1) != lo || cm(2) != hi {
			t.Fatalf("%s: out-of-range values not clamped", name)
		}
	}
	if g := Gray(0.5); g.R != g.G || g.G != g.B {
		t.Fatalf("gray not gray: %v", g)
	}
}

func TestSliceZDimsAndOrientation(t *testing.T) {
	f := field.New(8, 4, 2)
	f.Set(0, 0, 0, 1) // bottom-left in field coords
	img := SliceZ(f, 0, Gray)
	b := img.Bounds()
	if b.Dx() != 8 || b.Dy() != 4 {
		t.Fatalf("image %v", b)
	}
	// +y up flip: field (0,0) is at image row Ny-1.
	if img.RGBAAt(0, 3) == (color.RGBA{0, 0, 0, 255}) {
		t.Fatal("orientation flip missing")
	}
}

func TestSliceZConstantField(t *testing.T) {
	f := field.New(4, 4, 1)
	f.Fill(5)
	img := SliceZ(f, 0, Viridis) // zero range must not divide by zero
	if img.Bounds().Dx() != 4 {
		t.Fatal("render failed on constant field")
	}
}

func TestLogSliceHandlesZeros(t *testing.T) {
	f := field.New(4, 4, 1)
	f.Fill(0)
	f.Set(1, 1, 0, 10)
	img := LogSliceZ(f, 0, Viridis)
	if img == nil {
		t.Fatal("nil image")
	}
}

func TestSavePNGAndReload(t *testing.T) {
	dir := t.TempDir()
	f := synth.Generate(synth.RT, 16, 1)
	img := SliceZ(f, 8, CoolWarm)
	path := filepath.Join(dir, "slice.png")
	if err := SavePNG(img, path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() == 0 {
		t.Fatalf("png not written: %v", err)
	}
}

func TestUncertaintyOverlayShapes(t *testing.T) {
	f := synth.Generate(synth.Hurricane, 16, 2)
	probs, err := uncertainty.CrossProbabilities(f, f.Mean(), uncertainty.ErrorModel{StdDev: 1})
	if err != nil {
		t.Fatal(err)
	}
	img, err := UncertaintyOverlay(f, probs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 16 || img.Bounds().Dy() != 16 {
		t.Fatalf("overlay bounds %v", img.Bounds())
	}
	// Mismatched probability field must be rejected.
	bad := field.New(3, 3, 3)
	if _, err := UncertaintyOverlay(f, bad, 0); err == nil {
		t.Fatal("mismatched probability field accepted")
	}
	if _, err := UncertaintyOverlay(f, probs, 99); err == nil {
		t.Fatal("out-of-range slice accepted")
	}
}

func TestImageToFieldSSIMIdentity(t *testing.T) {
	// Rendering the same data twice must give SSIM 1 in image space.
	f := synth.Generate(synth.WarpX, 24, 3)
	a := imageToField(SliceZ(f, 12, CoolWarm))
	b := imageToField(SliceZ(f, 12, CoolWarm))
	if s := metrics.SSIM2D(a, b); s < 0.9999 {
		t.Fatalf("identical renders SSIM %v", s)
	}
}

func TestImageSpaceSSIMDropsWithDistortion(t *testing.T) {
	f := synth.Generate(synth.WarpX, 24, 4)
	lo, hi := f.Range()
	g := f.Clone()
	for i := range g.Data {
		if i%7 == 0 {
			g.Data[i] += (hi - lo) * 0.3
		}
	}
	a := imageToField(SliceZNormalized(f, 12, CoolWarm, lo, hi))
	b := imageToField(SliceZNormalized(g, 12, CoolWarm, lo, hi))
	if s := metrics.SSIM2D(a, b); s >= 0.999 {
		t.Fatalf("distorted render SSIM suspiciously high: %v", s)
	}
}

// imageToField converts an RGBA image's luminance back into a 2D field,
// letting image-space SSIM/PSNR be computed on rendered views (the way the
// paper reports SSIM of visualizations).
func imageToField(img *image.RGBA) *field.Field {
	b := img.Bounds()
	f := field.New(b.Dx(), b.Dy(), 1)
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			c := img.RGBAAt(b.Min.X+x, b.Min.Y+y)
			f.Set(x, y, 0, 0.299*float64(c.R)+0.587*float64(c.G)+0.114*float64(c.B))
		}
	}
	return f
}
