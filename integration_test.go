package repro

// End-to-end integration matrix: every dataset × backend × arrangement
// combination must round-trip through the full workflow with the error
// bound intact, a valid container, and sane quality metrics. This is the
// repository's broadest correctness net; narrower behaviour lives in the
// per-package tests.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/synth"
)

func TestWorkflowMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is slow; skipped in -short")
	}
	datasets := []synth.Dataset{synth.Nyx, synth.WarpX, synth.RT, synth.Hurricane, synth.S3D}
	compressors := []Compressor{SZ3, SZ2, ZFP}
	for _, ds := range datasets {
		for _, comp := range compressors {
			ds, comp := ds, comp
			t.Run(fmt.Sprintf("%s-%s", ds, comp), func(t *testing.T) {
				f := synth.Generate(ds, 32, 21)
				res, err := CompressUniform(f, Options{
					RelEB:      2e-3,
					Compressor: comp,
					ROIBlockB:  8,
					ROITopFrac: 0.4,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.CompressionRatio < 1 {
					t.Fatalf("CR %.2f below 1", res.CompressionRatio)
				}
				if math.IsNaN(res.PSNR) || res.PSNR < 10 {
					t.Fatalf("PSNR %.2f implausible", res.PSNR)
				}
				// Independent decode of the container must agree with the
				// in-process reconstruction.
				h, err := Decompress(res.Blob)
				if err != nil {
					t.Fatal(err)
				}
				if err := h.Validate(); err != nil {
					t.Fatal(err)
				}
				if !h.Flatten().Equal(res.Recon) {
					// Post-processing is off here, so these must match.
					t.Fatal("container decode disagrees with workflow reconstruction")
				}
			})
		}
	}
}

func TestArrangementMatrixErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is slow; skipped in -short")
	}
	f := synth.Generate(synth.Nyx, 32, 22)
	h, err := grid.BuildAMR(f, 8, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	rng := 0.0
	for _, lv := range h.Levels {
		if r := lv.Data.ValueRange(); r > rng {
			rng = r
		}
	}
	eb := rng * 1e-3
	for _, arr := range []Arrangement{Linear, Stack, TAC, ZOrder1D} {
		for _, comp := range []Compressor{SZ3, SZ2, ZFP} {
			res, err := CompressAMR(h, Options{EB: eb, Compressor: comp, Arrangement: arr})
			if err != nil {
				t.Fatalf("%s/%s: %v", arr, comp, err)
			}
			for li := range h.Levels {
				for _, bc := range h.OwnedBlocks(li) {
					a := blockField(h, li, bc)
					b := blockField(res.Hierarchy, li, bc)
					if d := a.MaxAbsDiff(b); d > eb*(1+1e-12) {
						t.Fatalf("%s/%s level %d: error %g > %g", arr, comp, li, d, eb)
					}
				}
			}
		}
	}
}

func TestPostProcessNeverViolatesDoubleBound(t *testing.T) {
	// Post-processing moves a sample by at most aᵢ·eb from its decompressed
	// value along dimension i; combined with the compressor bound the
	// reconstruction stays within (1+max aᵢ)·eb of the original data, with
	// aᵢ the intensity selected for the sample's level.
	f := synth.Generate(synth.Nyx, 32, 23)
	h, err := grid.BuildAMR(f, 8, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	eb := h.Levels[0].Data.ValueRange() * 5e-3
	for _, comp := range []Compressor{SZ2, SZ3, ZFP} {
		res, err := CompressAMR(h, Options{EB: eb, Compressor: comp, PostProcess: true})
		if err != nil {
			t.Fatal(err)
		}
		for li := range h.Levels {
			a := res.Intensities[li]
			bound := (1 + max(a[0], a[1], a[2])) * eb * (1 + 1e-12)
			for _, bc := range h.OwnedBlocks(li) {
				if d := blockField(h, li, bc).MaxAbsDiff(blockField(res.Hierarchy, li, bc)); d > bound {
					t.Fatalf("%s level %d: post-processed error %g exceeds (1+max aᵢ)·eb %g at a = %v", comp, li, d, bound, a)
				}
			}
		}
	}
}

func TestDifferentSeedsDifferentBlobs(t *testing.T) {
	a, err := CompressUniform(synth.Generate(synth.S3D, 16, 1), Options{RelEB: 1e-3, ROIBlockB: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompressUniform(synth.Generate(synth.S3D, 16, 2), Options{RelEB: 1e-3, ROIBlockB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Blob) == string(b.Blob) {
		t.Fatal("different inputs produced identical containers")
	}
}

func TestDeterministicContainer(t *testing.T) {
	f := synth.Generate(synth.RT, 16, 3)
	a, err := CompressUniform(f, Options{RelEB: 1e-3, ROIBlockB: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompressUniform(f, Options{RelEB: 1e-3, ROIBlockB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Blob) != string(b.Blob) {
		t.Fatal("compression not deterministic")
	}
}
