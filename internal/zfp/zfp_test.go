package zfp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/synth"
)

func smoothField(n int) *field.Field {
	f := field.New(n, n, n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				px, py, pz := float64(x)/float64(n), float64(y)/float64(n), float64(z)/float64(n)
				f.Set(x, y, z, math.Sin(6*px)+math.Cos(5*py)*pz)
			}
		}
	}
	return f
}

func TestLiftInverseExact(t *testing.T) {
	prop := func(a, b, c, d int32) bool {
		var v [64]int64
		v[0], v[1], v[2], v[3] = int64(a), int64(b), int64(c), int64(d)
		w := v
		lift4(&v, 0, 1)
		inverse4(&v, 0, 1)
		return v == w
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformInverseExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		var v, w [64]int64
		for i := range v {
			v[i] = int64(rng.Int31()) - (1 << 30)
			w[i] = v[i]
		}
		forwardTransform(&v)
		inverseTransform(&v)
		if v != w {
			t.Fatalf("transform round trip failed on trial %d", trial)
		}
	}
}

func TestDCConcentratesEnergy(t *testing.T) {
	// A constant block transforms to a single DC coefficient.
	var v [64]int64
	for i := range v {
		v[i] = 1000
	}
	forwardTransform(&v)
	if v[0] != 1000 {
		t.Fatalf("DC = %d, want 1000", v[0])
	}
	for i := 1; i < 64; i++ {
		if v[i] != 0 {
			t.Fatalf("AC coefficient %d = %d, want 0", i, v[i])
		}
	}
}

func TestSequencyOrderIsPermutation(t *testing.T) {
	seen := make([]bool, 64)
	for _, idx := range sequencyOrder {
		if idx < 0 || idx >= 64 || seen[idx] {
			t.Fatalf("bad sequency order at %d", idx)
		}
		seen[idx] = true
	}
	if sequencyOrder[0] != 0 {
		t.Fatalf("first coefficient must be DC, got %d", sequencyOrder[0])
	}
}

func TestRoundTripWithinTolerance(t *testing.T) {
	f := smoothField(20)
	for _, tol := range []float64{1e-1, 1e-3, 1e-6} {
		data, err := Compress(nil, f, Options{Tolerance: tol})
		if err != nil {
			t.Fatal(err)
		}
		g, err := Decompress(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		if d := f.MaxAbsDiff(g); d > tol {
			t.Fatalf("tol=%g: max error %g", tol, d)
		}
	}
}

func TestUnderestimation(t *testing.T) {
	// The achieved error should be clearly below the tolerance — the
	// characteristic the paper relies on for ZFP's post-process candidates.
	f := smoothField(24)
	tol := 1e-2
	data, err := Compress(nil, f, Options{Tolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.MaxAbsDiff(g); d > tol/2 {
		t.Fatalf("expected strong underestimation, max error %g vs tol %g", d, tol)
	}
}

func TestPartialBlocks(t *testing.T) {
	f := field.New(9, 6, 11)
	rng := rand.New(rand.NewSource(3))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	tol := 0.05
	data, err := Compress(nil, f, Options{Tolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if !f.SameShape(g) {
		t.Fatal("shape mismatch")
	}
	if d := f.MaxAbsDiff(g); d > tol {
		t.Fatalf("max error %g", d)
	}
}

func TestAllZeroField(t *testing.T) {
	f := field.New(8, 8, 8)
	data, err := Compress(nil, f, Options{Tolerance: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g.Data {
		if v != 0 {
			t.Fatalf("zero field decoded nonzero at %d: %g", i, v)
		}
	}
	if len(data) > 200 {
		t.Fatalf("zero field should compress to almost nothing, got %d bytes", len(data))
	}
}

func TestInvalidInputs(t *testing.T) {
	f := smoothField(8)
	if _, err := Compress(nil, f, Options{Tolerance: 0}); err == nil {
		t.Fatal("expected error for zero tolerance")
	}
	if _, err := Decompress(nil, []byte{1}); err == nil {
		t.Fatal("expected error for garbage")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny, nz := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		f := field.New(nx, ny, nz)
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
		}
		tol := 0.01
		data, err := Compress(nil, f, Options{Tolerance: tol})
		if err != nil {
			return false
		}
		g, err := Decompress(nil, data)
		if err != nil {
			return false
		}
		return f.MaxAbsDiff(g) <= tol
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHigherToleranceBetterRatio(t *testing.T) {
	f := synth.Generate(synth.Hurricane, 24, 5)
	rng := f.ValueRange()
	small, err := Compress(nil, f, Options{Tolerance: rng * 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Compress(nil, f, Options{Tolerance: rng * 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if len(big) >= len(small) {
		t.Fatalf("looser tolerance must compress better: %d vs %d", len(big), len(small))
	}
}
