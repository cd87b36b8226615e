package field

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	f := New(3, 4, 5)
	if f.Len() != 60 {
		t.Fatalf("Len = %d, want 60", f.Len())
	}
	for i, v := range f.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	New(0, 1, 1)
}

func TestIndexRowMajorXFastest(t *testing.T) {
	f := New(4, 3, 2)
	// x must be the fastest-varying coordinate.
	if f.Index(1, 0, 0) != 1 {
		t.Fatalf("Index(1,0,0) = %d, want 1", f.Index(1, 0, 0))
	}
	if f.Index(0, 1, 0) != 4 {
		t.Fatalf("Index(0,1,0) = %d, want 4", f.Index(0, 1, 0))
	}
	if f.Index(0, 0, 1) != 12 {
		t.Fatalf("Index(0,0,1) = %d, want 12", f.Index(0, 0, 1))
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	f := New(5, 6, 7)
	f.Set(4, 5, 6, 42.5)
	if got := f.At(4, 5, 6); got != 42.5 {
		t.Fatalf("At = %v, want 42.5", got)
	}
}

func TestRangeAndValueRange(t *testing.T) {
	f := New(2, 2, 1)
	copy(f.Data, []float64{-3, 7, 0, 2})
	min, max := f.Range()
	if min != -3 || max != 7 {
		t.Fatalf("Range = (%v,%v), want (-3,7)", min, max)
	}
	if f.ValueRange() != 10 {
		t.Fatalf("ValueRange = %v, want 10", f.ValueRange())
	}
}

func TestRangeIgnoresNaN(t *testing.T) {
	f := New(2, 1, 1)
	f.Data[0] = math.NaN()
	f.Data[1] = 5
	min, max := f.Range()
	if min != 5 || max != 5 {
		t.Fatalf("Range with NaN = (%v,%v), want (5,5)", min, max)
	}
}

func TestMeanVariance(t *testing.T) {
	f := New(4, 1, 1)
	copy(f.Data, []float64{1, 2, 3, 4})
	if m := f.Mean(); m != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", m)
	}
	if v := variance(f); math.Abs(v-1.25) > 1e-15 {
		t.Fatalf("Variance = %v, want 1.25", v)
	}
}

func TestSubBlockSetBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := New(8, 9, 10)
	for i := range f.Data {
		f.Data[i] = rng.Float64()
	}
	b := f.SubBlock(2, 3, 4, 4, 4, 4)
	if b.Nx != 4 || b.Ny != 4 || b.Nz != 4 {
		t.Fatalf("block shape %v", b)
	}
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				if b.At(x, y, z) != f.At(2+x, 3+y, 4+z) {
					t.Fatalf("block mismatch at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
	g := New(8, 9, 10)
	g.SetBlock(2, 3, 4, b)
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				if g.At(2+x, 3+y, 4+z) != b.At(x, y, z) {
					t.Fatalf("SetBlock mismatch at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

func TestSubBlockClamped(t *testing.T) {
	f := New(5, 5, 5)
	b := f.SubBlock(3, 3, 3, 4, 4, 4)
	if b.Nx != 2 || b.Ny != 2 || b.Nz != 2 {
		t.Fatalf("clamped block = %v, want 2x2x2", b)
	}
}

func TestDownsample2Mean(t *testing.T) {
	f := New(2, 2, 2)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	g := downsample2(f)
	if g.Nx != 1 || g.Ny != 1 || g.Nz != 1 {
		t.Fatalf("downsampled shape %v", g)
	}
	if g.Data[0] != 3.5 {
		t.Fatalf("mean = %v, want 3.5", g.Data[0])
	}
}

func TestDownsample2OddDims(t *testing.T) {
	f := New(3, 3, 1)
	f.Fill(2)
	g := downsample2(f)
	if g.Nx != 2 || g.Ny != 2 || g.Nz != 1 {
		t.Fatalf("downsampled shape %v", g)
	}
	for _, v := range g.Data {
		if v != 2 {
			t.Fatalf("constant field downsample = %v, want 2", v)
		}
	}
}

func TestUpsample2PreservesConstant(t *testing.T) {
	f := New(4, 4, 4)
	f.Fill(7)
	g := f.Upsample2(8, 8, 8)
	for _, v := range g.Data {
		if math.Abs(v-7) > 1e-12 {
			t.Fatalf("upsample of constant = %v, want 7", v)
		}
	}
}

func TestDownUpRoundTripLinearField(t *testing.T) {
	// A linear ramp should be reproduced nearly exactly by mean-downsample +
	// trilinear upsample away from boundaries.
	f := New(16, 16, 16)
	for z := 0; z < 16; z++ {
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				f.Set(x, y, z, float64(x)+2*float64(y)+3*float64(z))
			}
		}
	}
	g := downsample2(f).Upsample2(16, 16, 16)
	for z := 2; z < 14; z++ {
		for y := 2; y < 14; y++ {
			for x := 2; x < 14; x++ {
				if d := math.Abs(g.At(x, y, z) - f.At(x, y, z)); d > 1e-9 {
					t.Fatalf("linear field not preserved at (%d,%d,%d): diff %g", x, y, z, d)
				}
			}
		}
	}
}

func TestSliceZ(t *testing.T) {
	f := New(2, 2, 3)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	s := f.SliceZ(1)
	if s.Nz != 1 || s.At(0, 0, 0) != 4 || s.At(1, 1, 0) != 7 {
		t.Fatalf("SliceZ(1) wrong: %v", s.Data)
	}
}

func TestCloneIndependent(t *testing.T) {
	f := New(2, 2, 2)
	g := f.Clone()
	g.Data[0] = 99
	if f.Data[0] == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestMaxAbsDiffAndEqual(t *testing.T) {
	f := New(2, 2, 2)
	g := f.Clone()
	if !f.Equal(g) {
		t.Fatal("identical fields not Equal")
	}
	g.Data[3] = 0.5
	if f.Equal(g) {
		t.Fatal("different fields Equal")
	}
	if d := f.MaxAbsDiff(g); d != 0.5 {
		t.Fatalf("MaxAbsDiff = %v, want 0.5", d)
	}
}

func TestAddScaled(t *testing.T) {
	f := New(2, 1, 1)
	g := New(2, 1, 1)
	f.Data[0], f.Data[1] = 1, 2
	g.Data[0], g.Data[1] = 10, 20
	f.AddScaled(0.5, g)
	if f.Data[0] != 6 || f.Data[1] != 12 {
		t.Fatalf("AddScaled = %v", f.Data)
	}
}

func TestBinaryIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := New(5, 3, 4)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64() * 1e6
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(24+8*f.Len()) {
		t.Fatalf("WriteTo bytes = %d", n)
	}
	g, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(g) {
		t.Fatal("binary round trip not exact")
	}
}

func TestReadFromRejectsBadHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(make([]byte, 24)) // all zero dims
	if _, err := ReadFrom(&buf); err == nil {
		t.Fatal("expected error for zero dimensions")
	}
}

func TestQuickSubBlockRoundTrip(t *testing.T) {
	// Property: extracting any in-bounds block and writing it back to a zero
	// field, then extracting again, is idempotent.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny, nz := 2+rng.Intn(7), 2+rng.Intn(7), 2+rng.Intn(7)
		f := New(nx, ny, nz)
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64()
		}
		bx, by, bz := 1+rng.Intn(nx), 1+rng.Intn(ny), 1+rng.Intn(nz)
		x0, y0, z0 := rng.Intn(nx-bx+1), rng.Intn(ny-by+1), rng.Intn(nz-bz+1)
		b := f.SubBlock(x0, y0, z0, bx, by, bz)
		g := New(nx, ny, nz)
		g.SetBlock(x0, y0, z0, b)
		b2 := g.SubBlock(x0, y0, z0, bx, by, bz)
		return b.Equal(b2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDownsamplePreservesMean(t *testing.T) {
	// Property: for even dimensions, mean is exactly preserved by 2x mean
	// downsampling (each coarse cell averages exactly 8 children).
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 * (1 + rng.Intn(4))
		f := New(n, n, n)
		for i := range f.Data {
			f.Data[i] = rng.Float64()
		}
		g := downsample2(f)
		return math.Abs(f.Mean()-g.Mean()) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// downsample2 is f at half resolution per axis (ceil division), each coarse
// sample the mean of its (up to) 2×2×2 fine children.
func downsample2(f *Field) *Field {
	g := New((f.Nx+1)/2, (f.Ny+1)/2, (f.Nz+1)/2)
	DownsampleBlock2(g, 0, 0, 0, f, 0, 0, 0, f.Nx, f.Ny, f.Nz)
	return g
}

// variance returns the population variance of all samples.
func variance(f *Field) float64 {
	n := f.Len()
	if n == 0 {
		return 0
	}
	m := f.Mean()
	s := 0.0
	for _, v := range f.Data {
		d := v - m
		s += d * d
	}
	return s / float64(n)
}
