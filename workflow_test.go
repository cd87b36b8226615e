package repro

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/roi"
	"repro/internal/synth"
	"repro/internal/uncertainty"
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

// refCompressUniform, refCompressAMR and refAnalyzeUncertainty are the
// workflow as it was before each stage ran once: CompressUniform ran the
// AMR workflow, then recomputed quality and uncertainty against the uniform
// input; CompressAMR decoded the container twice under PostProcess and
// flattened the input hierarchy even for uniform inputs; the error model
// recomputed the bound from RelEB and the reconstruction's range. They are
// the reference TestWorkflowMatchesReference holds compressAMR to.
func refCompressUniform(f *Field, opt Options) (*Result, error) {
	t0 := time.Now()
	h, err := roi.Convert(f, roi.Options{BlockB: opt.ROIBlockB, TopFrac: opt.ROITopFrac})
	if err != nil {
		return nil, err
	}
	troi := time.Since(t0)
	res, err := refCompressAMR(h, opt)
	if err != nil {
		return nil, err
	}
	res.Timing.ROI = troi
	res.PSNR = metrics.PSNR(f, res.Recon)
	res.SSIM = metrics.SSIMCentral(f, res.Recon)
	if opt.Uncertainty {
		if err := refAnalyzeUncertainty(res, opt); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func refCompressAMR(h *Hierarchy, opt Options) (*Result, error) {
	eb, err := opt.resolveEB(h)
	if err != nil {
		return nil, err
	}
	co, err := opt.coreOptions(eb)
	if err != nil {
		return nil, err
	}

	var res Result
	t0 := time.Now()
	prep, err := core.Prepare(h, co)
	if err != nil {
		return nil, err
	}
	res.Timing.Preprocess = time.Since(t0)

	if opt.PostProcess {
		t0 = time.Now()
		res.Intensities, err = prep.FindIntensities()
		if err != nil {
			return nil, err
		}
		res.Timing.SampleModel = time.Since(t0)
	}

	t0 = time.Now()
	c, err := prep.Compress()
	if err != nil {
		return nil, err
	}
	res.Timing.Compress = time.Since(t0)
	res.Blob = c.Blob
	res.CompressionRatio = c.Ratio(h)

	t0 = time.Now()
	if opt.PostProcess {
		plain, err := core.DecompressWorkers(c.Blob, opt.Workers)
		if err != nil {
			return nil, err
		}
		_ = plain
		res.Hierarchy, err = core.DecompressProcessedWorkers(c.Blob, res.Intensities, opt.Workers)
		if err != nil {
			return nil, err
		}
	} else {
		res.Hierarchy, err = core.DecompressWorkers(c.Blob, opt.Workers)
		if err != nil {
			return nil, err
		}
	}
	res.Timing.Decompress = time.Since(t0)

	res.Recon = res.Hierarchy.Flatten()
	ref := h.Flatten()
	res.PSNR = metrics.PSNR(ref, res.Recon)
	res.SSIM = metrics.SSIMCentral(ref, res.Recon)
	if opt.Uncertainty {
		if err := refAnalyzeUncertainty(&res, opt); err != nil {
			return nil, err
		}
	}
	return &res, nil
}

func refAnalyzeUncertainty(r *Result, opt Options) error {
	eb := opt.EB
	if eb == 0 {
		eb = opt.RelEB * r.Recon.ValueRange()
	}
	r.Model = ErrorModel{StdDev: eb / 1.732}
	p, err := uncertainty.CrossProbabilities(r.Recon, opt.IsoValue, r.Model)
	if err != nil {
		return err
	}
	r.CrossProbabilities = p
	return nil
}

// TestWorkflowMatchesReference: running each stage once changes no output
// of the workflow — container, decoded hierarchy, reconstruction, quality
// metrics and post-processing intensities are bit-identical to the
// reference for uniform and AMR inputs, with post-processing on and off.
func TestWorkflowMatchesReference(t *testing.T) {
	f := synth.Generate(synth.Nyx, 32, 11)
	h, err := grid.BuildAMR(f, 16, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []Compressor{SZ3, SZ2} {
		for _, post := range []bool{false, true} {
			opt := Options{
				RelEB: 1e-3, Compressor: comp, PostProcess: post,
				Uncertainty: true, IsoValue: f.Mean(), Workers: 1,
			}
			for _, in := range []struct {
				name     string
				got, ref func() (*Result, error)
			}{
				{"uniform",
					func() (*Result, error) { return CompressUniform(f, opt) },
					func() (*Result, error) { return refCompressUniform(f, opt) }},
				{"amr",
					func() (*Result, error) { return CompressAMR(h, opt) },
					func() (*Result, error) { return refCompressAMR(h, opt) }},
			} {
				name := in.name + "/" + string(comp)
				if post {
					name += "/post"
				}
				t.Run(name, func(t *testing.T) {
					got, err := in.got()
					if err != nil {
						t.Fatal(err)
					}
					want, err := in.ref()
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, got, want)
				})
			}
		}
	}
}

func assertSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if !bytes.Equal(got.Blob, want.Blob) {
		t.Fatal("Blob differs")
	}
	if len(got.Hierarchy.Levels) != len(want.Hierarchy.Levels) {
		t.Fatalf("Hierarchy has %d levels, want %d", len(got.Hierarchy.Levels), len(want.Hierarchy.Levels))
	}
	for l, lv := range got.Hierarchy.Levels {
		wl := want.Hierarchy.Levels[l]
		if !sameBits(lv.Data.Data, wl.Data.Data) {
			t.Fatalf("Hierarchy level %d data differs", l)
		}
		for i := range lv.Owned {
			if lv.Owned[i] != wl.Owned[i] {
				t.Fatalf("Hierarchy level %d ownership differs at block %d", l, i)
			}
		}
	}
	if !sameBits(got.Recon.Data, want.Recon.Data) {
		t.Fatal("Recon differs")
	}
	if math.Float64bits(got.PSNR) != math.Float64bits(want.PSNR) {
		t.Fatalf("PSNR %v, want %v", got.PSNR, want.PSNR)
	}
	if math.Float64bits(got.SSIM) != math.Float64bits(want.SSIM) {
		t.Fatalf("SSIM %v, want %v", got.SSIM, want.SSIM)
	}
	if len(got.Intensities) != len(want.Intensities) {
		t.Fatalf("%d intensities, want %d", len(got.Intensities), len(want.Intensities))
	}
	for l := range got.Intensities {
		if !sameBits(got.Intensities[l][:], want.Intensities[l][:]) {
			t.Fatalf("intensity %d: %v, want %v", l, got.Intensities[l], want.Intensities[l])
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestErrorModelUsesContainerBound: the uncertainty stage models the error
// from the bound the container was compressed at, not from RelEB times the
// reconstruction's range, and its crossing field is exactly the one that
// model gives on the reconstruction.
func TestErrorModelUsesContainerBound(t *testing.T) {
	f := synth.Generate(synth.Nyx, 64, 1)
	iso := f.Mean()
	res, err := CompressUniform(f, Options{RelEB: 1e-3, Uncertainty: true, IsoValue: iso})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenContainer(bytes.NewReader(res.Blob), int64(len(res.Blob)))
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Options().EB / 1.732; res.Model.StdDev != want {
		t.Fatalf("Model.StdDev %v, want container EB/1.732 = %v (ratio %v)",
			res.Model.StdDev, want, res.Model.StdDev/want)
	}
	p, err := uncertainty.CrossProbabilities(res.Recon, iso, res.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(res.CrossProbabilities.Data, p.Data) {
		t.Fatal("CrossProbabilities differ from uncertainty.CrossProbabilities(Recon, iso, Model)")
	}
}
