package postproc

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/zfp"

	sz2pkg "repro/internal/sz2"
)

func TestProcessStaysWithinIntensityBound(t *testing.T) {
	f := synth.Generate(synth.WarpX, 32, 1)
	eb := f.ValueRange() * 1e-2
	data, err := zfp.Compress(nil, f, zfp.Options{Tolerance: eb})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := zfp.Decompress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	a := Uniform(0.3)
	proc := Process(dec, a, Options{EB: eb, BlockSize: 4})
	// Each axis pass may move a sample by ≤ a·eb relative to the original
	// decompressed value; passes are clamped against the same reference, so
	// the total deviation stays ≤ a·eb.
	if d := dec.MaxAbsDiff(proc); d > 0.3*eb*(1+1e-9) {
		t.Fatalf("deviation %g exceeds a*eb = %g", d, 0.3*eb)
	}
}

func TestProcessZeroIntensityIsIdentity(t *testing.T) {
	f := synth.Generate(synth.S3D, 16, 2)
	proc := Process(f, Uniform(0), Options{EB: 1, BlockSize: 4})
	if !proc.Equal(f) {
		t.Fatal("zero intensity must not change the field")
	}
}

func TestProcessSmoothsSyntheticBlockArtifact(t *testing.T) {
	// Construct a field that is a smooth ramp plus per-block constant
	// offsets (a caricature of blocking artifacts); the true data is the
	// ramp. Post-processing must reduce error at block boundaries.
	const n, bs = 16, 4
	orig := field.New(n, n, n)
	dec := field.New(n, n, n)
	eb := 0.2
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				v := 0.1 * float64(x+y+z)
				orig.Set(x, y, z, v)
				// Block-dependent offset within ±eb.
				off := eb * 0.9 * float64((x/bs+y/bs+z/bs)%2*2-1)
				dec.Set(x, y, z, v+off)
			}
		}
	}
	proc := Process(dec, Uniform(0.5), Options{EB: eb, BlockSize: bs})
	before := metrics.MSE(orig, dec)
	after := metrics.MSE(orig, proc)
	if after >= before {
		t.Fatalf("post-processing did not reduce MSE: %g -> %g", before, after)
	}
}

func TestProcessOnlyTouchesBoundaries(t *testing.T) {
	f := synth.Generate(synth.RT, 16, 3)
	proc := Process(f, Uniform(0.5), Options{EB: 1, BlockSize: 4})
	// Interior samples (not adjacent to any block boundary along any axis)
	// must be unchanged.
	isBoundary := func(p int) bool {
		m := p % 4
		return m == 3 || m == 0
	}
	for z := 1; z < 15; z++ {
		for y := 1; y < 15; y++ {
			for x := 1; x < 15; x++ {
				if isBoundary(x) || isBoundary(y) || isBoundary(z) {
					continue
				}
				if proc.At(x, y, z) != f.At(x, y, z) {
					t.Fatalf("interior sample (%d,%d,%d) modified", x, y, z)
				}
			}
		}
	}
}

func TestCandidates(t *testing.T) {
	s := SZ2Candidates()
	if len(s) != 10 || math.Abs(s[0]-0.05) > 1e-15 || math.Abs(s[9]-0.5) > 1e-15 {
		t.Fatalf("SZ2 candidates %v", s)
	}
	z := ZFPCandidates()
	if len(z) != 10 || math.Abs(z[0]-0.005) > 1e-15 || math.Abs(z[9]-0.05) > 1e-15 {
		t.Fatalf("ZFP candidates %v", z)
	}
}

func zfpRoundTrip(eb float64) RoundTrip {
	return func(f *field.Field) (*field.Field, error) {
		data, err := zfp.Compress(nil, f, zfp.Options{Tolerance: eb})
		if err != nil {
			return nil, err
		}
		return zfp.Decompress(nil, data)
	}
}

func sz2RoundTrip(eb float64, bs int) RoundTrip {
	return func(f *field.Field) (*field.Field, error) {
		data, err := sz2pkg.Compress(nil, f, sz2pkg.Options{EB: eb, BlockSize: bs})
		if err != nil {
			return nil, err
		}
		return sz2pkg.Decompress(nil, data)
	}
}

func TestCollectSamplesRate(t *testing.T) {
	// On a field large enough that the rate bound dominates the minimum
	// sample count, the sampling rate must stay below 1.5%.
	f := synth.Generate(synth.S3D, 72, 4)
	eb := f.ValueRange() * 1e-2
	opt := Options{EB: eb, BlockSize: 4}
	set, err := CollectSamples(f, zfpRoundTrip(eb), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	total := 0
	for _, s := range set.Samples {
		total += s.Orig.Len()
	}
	if rate := float64(total) / float64(f.Len()); rate > 0.016 {
		t.Fatalf("sampling rate %.4f exceeds 1.5%%", rate)
	}
}

func TestFindIntensityImprovesFullFieldPSNR(t *testing.T) {
	// End-to-end: ZFP at a coarse tolerance, intensity from samples,
	// post-process the full decompressed field → PSNR must improve.
	f := synth.Generate(synth.WarpX, 48, 5)
	eb := f.ValueRange() * 2e-2
	rt := zfpRoundTrip(eb)
	opt := Options{EB: eb, BlockSize: 4, Candidates: ZFPCandidates()}
	set, err := CollectSamples(f, rt, opt)
	if err != nil {
		t.Fatal(err)
	}
	a := set.FindIntensity()
	dec, err := rt(f)
	if err != nil {
		t.Fatal(err)
	}
	proc := Process(dec, a, opt)
	before := metrics.PSNR(f, dec)
	after := metrics.PSNR(f, proc)
	if after < before {
		t.Fatalf("post-processing reduced PSNR: %.2f -> %.2f (a=%v)", before, after, a)
	}
}

func TestFindIntensityImprovesSZ2(t *testing.T) {
	f := synth.Generate(synth.Nyx, 48, 6)
	eb := f.ValueRange() * 1e-2
	rt := sz2RoundTrip(eb, 4)
	opt := Options{EB: eb, BlockSize: 4, Candidates: SZ2Candidates()}
	set, err := CollectSamples(f, rt, opt)
	if err != nil {
		t.Fatal(err)
	}
	a := set.FindIntensity()
	dec, err := rt(f)
	if err != nil {
		t.Fatal(err)
	}
	proc := Process(dec, a, opt)
	if metrics.PSNR(f, proc) < metrics.PSNR(f, dec) {
		t.Fatalf("SZ2 post-processing reduced PSNR (a=%v)", a)
	}
}

func TestConservativeAtHighQuality(t *testing.T) {
	// At a very tight bound there is almost nothing to fix; the dynamic
	// intensity must not make things worse (paper: "conservative degree of
	// post-processing intensity" at low CR).
	f := synth.Generate(synth.S3D, 32, 7)
	eb := f.ValueRange() * 1e-6
	rt := zfpRoundTrip(eb)
	opt := Options{EB: eb, BlockSize: 4, Candidates: ZFPCandidates()}
	set, err := CollectSamples(f, rt, opt)
	if err != nil {
		t.Fatal(err)
	}
	a := set.FindIntensity()
	dec, err := rt(f)
	if err != nil {
		t.Fatal(err)
	}
	proc := Process(dec, a, opt)
	if metrics.PSNR(f, proc) < metrics.PSNR(f, dec)-1e-9 {
		t.Fatalf("high-quality regime regressed: %v", a)
	}
}

func TestErrorStats(t *testing.T) {
	orig := field.New(4, 4, 4)
	dec := field.New(4, 4, 4)
	for i := range orig.Data {
		orig.Data[i] = float64(i)
		dec.Data[i] = float64(i) - 0.5 // constant error +0.5
	}
	set := &SampleSet{Samples: []Sample{{Orig: orig, Decomp: dec}}}
	mean, variance := set.ErrorStats()
	if math.Abs(mean-0.5) > 1e-12 || variance > 1e-12 {
		t.Fatalf("stats = (%g, %g), want (0.5, 0)", mean, variance)
	}
}

func TestErrorStatsNearIsovalue(t *testing.T) {
	orig := field.New(4, 1, 1)
	dec := field.New(4, 1, 1)
	copy(orig.Data, []float64{0, 1.2, 2.1, 3})
	copy(dec.Data, []float64{0, 1.0, 2.0, 3})
	set := &SampleSet{Samples: []Sample{{Orig: orig, Decomp: dec}}}
	// Window around isovalue 1.5 captures decompressed values 1.0 and 2.0.
	mean, _, count := set.ErrorStatsNearIsovalue(1.5, 0.6)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if math.Abs(mean-0.15) > 1e-12 {
		t.Fatalf("mean = %g, want 0.15", mean)
	}
}

func TestCollectSamplesValidation(t *testing.T) {
	f := synth.Generate(synth.S3D, 16, 8)
	if _, err := CollectSamples(f, zfpRoundTrip(1), Options{EB: 0, BlockSize: 4}); err == nil {
		t.Fatal("zero eb accepted")
	}
	if _, err := CollectSamples(f, zfpRoundTrip(1), Options{EB: 1, BlockSize: 1}); err == nil {
		t.Fatal("block size 1 accepted")
	}
}
