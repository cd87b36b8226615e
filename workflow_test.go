package repro

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/synth"
)

func TestWorkersKnobDoesNotChangeOutput(t *testing.T) {
	f := synth.Generate(synth.Nyx, 64, 17)
	h, err := grid.BuildAMR(f, 16, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	var blobs [][]byte
	for _, workers := range []int{1, 4} {
		res, err := CompressAMR(h, Options{RelEB: 1e-3, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		blobs = append(blobs, res.Blob)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("Workers=1 and Workers=4 containers differ (%d vs %d bytes)",
			len(blobs[0]), len(blobs[1]))
	}
	g1, err := DecompressWorkers(blobs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	g4, err := DecompressWorkers(blobs[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := g1.Flatten(), g4.Flatten()
	if a.MaxAbsDiff(b) != 0 {
		t.Fatal("decode differs between worker counts")
	}
}

func TestCompressUniformDefaultWorkflow(t *testing.T) {
	f := synth.Generate(synth.Nyx, 64, 1)
	res, err := CompressUniform(f, Options{RelEB: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompressionRatio < 2 {
		t.Fatalf("CR %.2f too low", res.CompressionRatio)
	}
	if res.PSNR < 30 {
		t.Fatalf("PSNR %.1f too low", res.PSNR)
	}
	if !res.Recon.SameShape(f) {
		t.Fatal("reconstruction shape mismatch")
	}
	if res.Timing.Preprocess <= 0 || res.Timing.Compress <= 0 {
		t.Fatal("timings not recorded")
	}
}

func TestCompressAMRAllBackends(t *testing.T) {
	f := synth.Generate(synth.Nyx, 64, 2)
	h, err := grid.BuildAMR(f, 16, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []Compressor{SZ3, SZ2, ZFP} {
		res, err := CompressAMR(h, Options{RelEB: 1e-3, Compressor: comp})
		if err != nil {
			t.Fatalf("%s: %v", comp, err)
		}
		if res.CompressionRatio < 1.5 {
			t.Fatalf("%s: CR %.2f", comp, res.CompressionRatio)
		}
		// Round trip container.
		g, err := Decompress(res.Blob)
		if err != nil {
			t.Fatalf("%s: %v", comp, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", comp, err)
		}
	}
}

func TestPostProcessImprovesBlockwiseBackends(t *testing.T) {
	f := synth.Generate(synth.Nyx, 64, 3)
	h, err := grid.BuildAMR(f, 16, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []Compressor{SZ2, ZFP} {
		plain, err := CompressAMR(h, Options{RelEB: 5e-3, Compressor: comp})
		if err != nil {
			t.Fatal(err)
		}
		post, err := CompressAMR(h, Options{RelEB: 5e-3, Compressor: comp, PostProcess: true})
		if err != nil {
			t.Fatal(err)
		}
		if post.PSNR < plain.PSNR-1e-9 {
			t.Fatalf("%s: post-processing hurt PSNR: %.2f -> %.2f", comp, plain.PSNR, post.PSNR)
		}
		if post.Timing.SampleModel <= 0 {
			t.Fatalf("%s: sample/model timing missing", comp)
		}
	}
}

func TestErrorBoundHolds(t *testing.T) {
	f := synth.Generate(synth.RT, 32, 4)
	h, err := grid.BuildAMR(f, 8, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e-3
	res, err := CompressAMR(h, Options{EB: eb})
	if err != nil {
		t.Fatal(err)
	}
	// Per-level stored samples obey the bound.
	for li := range h.Levels {
		for _, bc := range h.OwnedBlocks(li) {
			a := blockField(h, li, bc)
			b := blockField(res.Hierarchy, li, bc)
			if d := a.MaxAbsDiff(b); d > eb*(1+1e-12) {
				t.Fatalf("level %d block %v error %g > %g", li, bc, d, eb)
			}
		}
	}
}

func TestUncertaintyStage(t *testing.T) {
	f := synth.Generate(synth.Hurricane, 32, 5)
	res, err := CompressUniform(f, Options{
		RelEB: 1e-2, Compressor: ZFP,
		ROIBlockB: 8, Uncertainty: true, IsoValue: f.Mean() * 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossProbabilities == nil {
		t.Fatal("no probability field")
	}
	if res.Model.StdDev <= 0 {
		t.Fatal("no error model")
	}
	for _, p := range res.CrossProbabilities.Data {
		if p < -1e-9 || p > 1+1e-9 || math.IsNaN(p) {
			t.Fatalf("invalid probability %g", p)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	f := synth.Generate(synth.S3D, 32, 6)
	if _, err := CompressUniform(f, Options{}); err == nil {
		t.Fatal("missing error bound accepted")
	}
	if _, err := CompressUniform(f, Options{EB: 1, RelEB: 1}); err == nil {
		t.Fatal("both EB and RelEB accepted")
	}
	if _, err := CompressUniform(f, Options{EB: 1, Compressor: "bogus"}); err == nil {
		t.Fatal("bogus compressor accepted")
	}
	if _, err := CompressUniform(f, Options{EB: 1, Arrangement: "bogus"}); err == nil {
		t.Fatal("bogus arrangement accepted")
	}
}

func TestArrangementsViaFacade(t *testing.T) {
	f := synth.Generate(synth.Nyx, 32, 7)
	h, err := grid.BuildAMR(f, 8, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	for _, arr := range []Arrangement{Linear, Stack, TAC, ZOrder1D} {
		res, err := CompressAMR(h, Options{RelEB: 1e-3, Arrangement: arr})
		if err != nil {
			t.Fatalf("%s: %v", arr, err)
		}
		if res.PSNR < 20 {
			t.Fatalf("%s: PSNR %.1f", arr, res.PSNR)
		}
	}
}

func TestConvertROIExposed(t *testing.T) {
	f := synth.Generate(synth.WarpX, 32, 8)
	h, err := ConvertROI(f, 8, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if d := h.Density(0); math.Abs(d-0.25) > 0.02 {
		t.Fatalf("density %g", d)
	}
}

func TestMetricReexports(t *testing.T) {
	f := synth.Generate(synth.S3D, 16, 9)
	if !math.IsInf(PSNR(f, f), 1) {
		t.Fatal("PSNR re-export broken")
	}
	if s := SSIM(f, f); math.Abs(s-1) > 1e-9 {
		t.Fatal("SSIM re-export broken")
	}
	if CompressionRatio(100, 10) != 10 {
		t.Fatal("CR re-export broken")
	}
}

// blockField copies unit block bc of a level out as a standalone field.
func blockField(h *grid.Hierarchy, level int, bc [3]int) *field.Field {
	u := h.UnitBlockSize(level)
	return h.Levels[level].Data.SubBlock(bc[0]*u, bc[1]*u, bc[2]*u, u, u, u)
}
