package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

func randomField(nx, ny, nz int, seed int64) *field.Field {
	rng := rand.New(rand.NewSource(seed))
	f := field.New(nx, ny, nz)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func TestMSEZeroForIdentical(t *testing.T) {
	f := randomField(8, 8, 8, 1)
	if MSE(f, f) != 0 {
		t.Fatal("MSE of identical fields must be 0")
	}
}

func TestMSEKnownValue(t *testing.T) {
	a := field.New(2, 1, 1)
	b := field.New(2, 1, 1)
	a.Data[0], a.Data[1] = 1, 3
	b.Data[0], b.Data[1] = 2, 1
	// errors: 1 and 2 → MSE = (1+4)/2 = 2.5
	if got := MSE(a, b); got != 2.5 {
		t.Fatalf("MSE = %v, want 2.5", got)
	}
}

func TestPSNRInfiniteForIdentical(t *testing.T) {
	f := randomField(4, 4, 4, 2)
	if !math.IsInf(PSNR(f, f), 1) {
		t.Fatal("PSNR of identical fields must be +Inf")
	}
}

func TestPSNRKnownValue(t *testing.T) {
	a := field.New(2, 1, 1)
	b := field.New(2, 1, 1)
	a.Data[0], a.Data[1] = 0, 100 // range 100
	b.Data[0], b.Data[1] = 1, 100 // MSE = 0.5
	want := 20*math.Log10(100) - 10*math.Log10(0.5)
	if got := PSNR(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PSNR = %v, want %v", got, want)
	}
}

func TestPSNRMonotoneInError(t *testing.T) {
	f := randomField(8, 8, 8, 3)
	g1 := f.Clone()
	g2 := f.Clone()
	for i := range g1.Data {
		g1.Data[i] += 0.01
		g2.Data[i] += 0.1
	}
	if PSNR(f, g1) <= PSNR(f, g2) {
		t.Fatal("smaller error must give higher PSNR")
	}
}

func TestSSIMIdenticalIsOne(t *testing.T) {
	f := randomField(32, 32, 1, 4)
	if s := SSIM2D(f, f); math.Abs(s-1) > 1e-9 {
		t.Fatalf("SSIM of identical slices = %v, want 1", s)
	}
}

func TestSSIMDecreasesWithNoise(t *testing.T) {
	f := randomField(32, 32, 1, 5)
	rng := rand.New(rand.NewSource(6))
	small := f.Clone()
	big := f.Clone()
	for i := range f.Data {
		n := rng.NormFloat64()
		small.Data[i] += 0.05 * n
		big.Data[i] += 0.8 * n
	}
	sSmall := SSIM2D(f, small)
	sBig := SSIM2D(f, big)
	if !(sSmall > sBig) {
		t.Fatalf("SSIM should decrease with noise: %v vs %v", sSmall, sBig)
	}
	if sBig < -1.01 || sSmall > 1.01 {
		t.Fatalf("SSIM out of [-1,1]: %v %v", sBig, sSmall)
	}
}

func TestSSIM3DMeanOfSlices(t *testing.T) {
	f := randomField(16, 16, 4, 7)
	g := f.Clone()
	if s := SSIM3D(f, g); math.Abs(s-1) > 1e-9 {
		t.Fatalf("SSIM3D identical = %v", s)
	}
}

func TestSSIMCentralUsesMiddleSlice(t *testing.T) {
	f := randomField(16, 16, 8, 8)
	g := f.Clone()
	// Corrupt a non-central slice only: central SSIM must stay 1.
	for x := 0; x < 16; x++ {
		g.Set(x, 0, 0, 99)
	}
	if s := SSIMCentral(f, g); math.Abs(s-1) > 1e-9 {
		t.Fatalf("SSIMCentral affected by other slice: %v", s)
	}
}

func TestCompressionRatio(t *testing.T) {
	if CompressionRatio(1000, 10) != 100 {
		t.Fatal("CR wrong")
	}
	if !math.IsInf(CompressionRatio(10, 0), 1) {
		t.Fatal("CR with 0 bytes should be +Inf")
	}
}

func TestQuickSSIMSymmetricRange(t *testing.T) {
	// Property: SSIM is within [-1, 1+eps] for random perturbations.
	prop := func(seed int64) bool {
		f := randomField(16, 16, 1, seed)
		g := randomField(16, 16, 1, seed+1)
		s := SSIM2D(f, g)
		return s >= -1.000001 && s <= 1.000001 && !math.IsNaN(s)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
