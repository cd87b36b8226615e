package filters

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/zfp"
)

func TestMedianRemovesImpulse(t *testing.T) {
	f := field.New(8, 8, 8)
	f.Fill(1)
	f.Set(4, 4, 4, 100) // impulse
	g := Median3(f)
	if g.At(4, 4, 4) != 1 {
		t.Fatalf("median did not remove impulse: %g", g.At(4, 4, 4))
	}
}

func TestMedianPreservesConstant(t *testing.T) {
	f := field.New(6, 6, 6)
	f.Fill(3.5)
	if !Median3(f).Equal(f) {
		t.Fatal("median altered a constant field")
	}
}

func TestGaussianPreservesConstantAndMean(t *testing.T) {
	f := field.New(8, 8, 8)
	f.Fill(2)
	g := Gaussian(f, 1.0)
	for _, v := range g.Data {
		if math.Abs(v-2) > 1e-12 {
			t.Fatalf("gaussian altered constant field: %g", v)
		}
	}
}

func TestGaussianReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := field.New(16, 16, 16)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	g := Gaussian(f, 1.5)
	if variance(g) >= variance(f) {
		t.Fatalf("blur did not reduce variance: %g vs %g", variance(g), variance(f))
	}
}

func TestGaussianZeroSigmaIdentity(t *testing.T) {
	f := synth.Generate(synth.S3D, 8, 1)
	if !Gaussian(f, 0).Equal(f) {
		t.Fatal("sigma=0 must be identity")
	}
}

func TestAnisotropicPreservesEdgesBetterThanGaussian(t *testing.T) {
	// A step edge: anisotropic diffusion should keep the step sharper than
	// an equally-smoothing Gaussian.
	f := field.New(16, 16, 16)
	for z := 0; z < 16; z++ {
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				if x < 8 {
					f.Set(x, y, z, 0)
				} else {
					f.Set(x, y, z, 1)
				}
			}
		}
	}
	ad := AnisotropicDiffusion(f, 5, 0.1, 1.0/7)
	gs := Gaussian(f, 1.0)
	// Edge contrast at the step.
	adStep := ad.At(8, 8, 8) - ad.At(7, 8, 8)
	gsStep := gs.At(8, 8, 8) - gs.At(7, 8, 8)
	if adStep <= gsStep {
		t.Fatalf("anisotropic diffusion lost the edge: %g vs gaussian %g", adStep, gsStep)
	}
}

func TestAnisotropicStable(t *testing.T) {
	f := synth.Generate(synth.RT, 12, 2)
	g := AnisotropicDiffusion(f, 10, 0.5, 1.0/7)
	for i, v := range g.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("diffusion diverged at %d", i)
		}
	}
	min0, max0 := f.Range()
	min1, max1 := g.Range()
	if min1 < min0-1e-9 || max1 > max0+1e-9 {
		t.Fatalf("diffusion violated maximum principle: [%g,%g] -> [%g,%g]", min0, max0, min1, max1)
	}
}

// TestTable1FiltersReducePSNR reproduces the direction of Table I: applying
// generic image filters to error-bounded decompressed data lowers PSNR
// relative to the unfiltered decompressed data.
func TestTable1FiltersReducePSNR(t *testing.T) {
	f := synth.Generate(synth.WarpX, 32, 3)
	eb := f.ValueRange() * 5e-3
	data, err := zfp.Compress(nil, f, zfp.Options{Tolerance: eb})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := zfp.Decompress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	base := metrics.PSNR(f, dec)
	for name, g := range map[string]*field.Field{
		"median":   Median3(dec),
		"gaussian": Gaussian(dec, 1.0),
		"aniso":    AnisotropicDiffusion(dec, 5, f.ValueRange()*0.05, 1.0/7),
	} {
		if p := metrics.PSNR(f, g); p >= base {
			t.Fatalf("%s filter unexpectedly improved PSNR: %.2f vs %.2f", name, p, base)
		}
	}
}

// variance returns the population variance of f's samples.
func variance(f *field.Field) float64 {
	m := f.Mean()
	s := 0.0
	for _, v := range f.Data {
		s += (v - m) * (v - m)
	}
	return s / float64(f.Len())
}
