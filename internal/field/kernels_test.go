package field

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/raceflag"
)

// The ref* functions are SubBlock, SetBlock, Downsample2 and Range as they
// were before the strided kernels replaced their bodies: the reference the
// kernels are held to, bit for bit.

func refSubBlock(f *Field, x0, y0, z0, bx, by, bz int) *Field {
	b := New(bx, by, bz)
	for z := 0; z < bz; z++ {
		for y := 0; y < by; y++ {
			for x := 0; x < bx; x++ {
				b.Set(x, y, z, f.At(x0+x, y0+y, z0+z))
			}
		}
	}
	return b
}

func refSetBlock(f *Field, x0, y0, z0 int, b *Field) {
	for z := 0; z < b.Nz; z++ {
		for y := 0; y < b.Ny; y++ {
			for x := 0; x < b.Nx; x++ {
				f.Set(x0+x, y0+y, z0+z, b.At(x, y, z))
			}
		}
	}
}

func refDownsample2(f *Field) *Field {
	nx, ny, nz := (f.Nx+1)/2, (f.Ny+1)/2, (f.Nz+1)/2
	g := New(nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				sum, n := 0.0, 0
				for dz := 0; dz < 2; dz++ {
					fz := 2*z + dz
					if fz >= f.Nz {
						continue
					}
					for dy := 0; dy < 2; dy++ {
						fy := 2*y + dy
						if fy >= f.Ny {
							continue
						}
						for dx := 0; dx < 2; dx++ {
							fx := 2*x + dx
							if fx >= f.Nx {
								continue
							}
							sum += f.At(fx, fy, fz)
							n++
						}
					}
				}
				g.Set(x, y, z, sum/float64(n))
			}
		}
	}
	return g
}

func refRange(f *Field) (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range f.Data {
		if math.IsNaN(v) {
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if math.IsInf(min, 1) {
		return 0, 0
	}
	return min, max
}

// nastyField fills a non-cubic field with values that expose a changed
// summation order or NaN rule: mixed magnitudes and signs, and a sprinkling
// of NaN, ±Inf and -0.
func nastyField(nx, ny, nz int, seed int64) *Field {
	rng := rand.New(rand.NewSource(seed))
	f := New(nx, ny, nz)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for i := range f.Data {
		if rng.Intn(16) == 0 {
			f.Data[i] = special[rng.Intn(len(special))]
			continue
		}
		f.Data[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-6))
	}
	return f
}

func sameBits(a, b *Field) error {
	if !a.SameShape(b) {
		return fmt.Errorf("shape %v vs %v", a, b)
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return fmt.Errorf("sample %d: %x (%g) vs %x (%g)", i,
				math.Float64bits(v), v, math.Float64bits(b.Data[i]), b.Data[i])
		}
	}
	return nil
}

// regions yields origins and sizes inside an nx×ny×nz field, odd sizes and
// field-edge regions included.
func regions(nx, ny, nz int, rng *rand.Rand, n int) [][6]int {
	out := [][6]int{{0, 0, 0, nx, ny, nz}, {nx - 1, ny - 1, nz - 1, 1, 1, 1}}
	for len(out) < n {
		x0, y0, z0 := rng.Intn(nx), rng.Intn(ny), rng.Intn(nz)
		out = append(out, [6]int{x0, y0, z0, 1 + rng.Intn(nx-x0), 1 + rng.Intn(ny-y0), 1 + rng.Intn(nz-z0)})
	}
	return out
}

func TestCopyBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := nastyField(13, 7, 10, 2)
	for _, r := range regions(src.Nx, src.Ny, src.Nz, rng, 40) {
		x0, y0, z0, bx, by, bz := r[0], r[1], r[2], r[3], r[4], r[5]
		want := refSubBlock(src, x0, y0, z0, bx, by, bz)
		if err := sameBits(src.SubBlock(x0, y0, z0, bx, by, bz), want); err != nil {
			t.Fatalf("SubBlock %v: %v", r, err)
		}
		// Into a destination of different strides, at an offset.
		got, ref := nastyField(17, 11, 12, 3), nastyField(17, 11, 12, 3)
		dx, dy, dz := rng.Intn(got.Nx-bx+1), rng.Intn(got.Ny-by+1), rng.Intn(got.Nz-bz+1)
		CopyBlock(got, dx, dy, dz, src, x0, y0, z0, bx, by, bz)
		refSetBlock(ref, dx, dy, dz, want)
		if err := sameBits(got, ref); err != nil {
			t.Fatalf("CopyBlock %v -> (%d,%d,%d): %v", r, dx, dy, dz, err)
		}
		ref2 := nastyField(17, 11, 12, 3)
		ref2.SetBlock(dx, dy, dz, want)
		if err := sameBits(ref2, ref); err != nil {
			t.Fatalf("SetBlock %v: %v", r, err)
		}
	}
}

func TestBlockRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := nastyField(13, 7, 10, 5)
	// One region with nothing but NaN, one with nothing but +Inf.
	allNaN, allInf := [6]int{2, 1, 3, 4, 3, 2}, [6]int{8, 4, 6, 3, 2, 3}
	for _, c := range []struct {
		r [6]int
		v float64
	}{{allNaN, math.NaN()}, {allInf, math.Inf(1)}} {
		fill := New(c.r[3], c.r[4], c.r[5])
		fill.Fill(c.v)
		refSetBlock(f, c.r[0], c.r[1], c.r[2], fill)
	}
	for _, r := range append(regions(f.Nx, f.Ny, f.Nz, rng, 60), allNaN, allInf) {
		wmin, wmax := refRange(refSubBlock(f, r[0], r[1], r[2], r[3], r[4], r[5]))
		gmin, gmax := FinishRange(f.BlockExtremes(r[0], r[1], r[2], r[3], r[4], r[5]))
		if math.Float64bits(gmin) != math.Float64bits(wmin) || math.Float64bits(gmax) != math.Float64bits(wmax) {
			t.Fatalf("BlockExtremes %v = (%g,%g) finished, reference (%g,%g)", r, gmin, gmax, wmin, wmax)
		}
	}
	wmin, wmax := refRange(f)
	if gmin, gmax := f.Range(); math.Float64bits(gmin) != math.Float64bits(wmin) || math.Float64bits(gmax) != math.Float64bits(wmax) {
		t.Fatalf("Range = (%g,%g), reference (%g,%g)", gmin, gmax, wmin, wmax)
	}
}

func TestDownsampleBlock2MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := nastyField(13, 7, 10, 7)
	if err := sameBits(downsample2(src), refDownsample2(src)); err != nil {
		t.Fatalf("Downsample2: %v", err)
	}
	rs := regions(src.Nx, src.Ny, src.Nz, rng, 60)
	// The hot-path shapes: even cubes of edge 2, 4, 8.
	rs = append(rs, [6]int{1, 1, 1, 2, 2, 2}, [6]int{5, 2, 3, 4, 4, 4}, [6]int{3, 0, 1, 8, 6, 8})
	for _, r := range rs {
		x0, y0, z0, bx, by, bz := r[0], r[1], r[2], r[3], r[4], r[5]
		want := refDownsample2(refSubBlock(src, x0, y0, z0, bx, by, bz))
		got, ref := nastyField(9, 8, 11, 8), nastyField(9, 8, 11, 8)
		dx, dy, dz := rng.Intn(got.Nx-want.Nx+1), rng.Intn(got.Ny-want.Ny+1), rng.Intn(got.Nz-want.Nz+1)
		DownsampleBlock2(got, dx, dy, dz, src, x0, y0, z0, bx, by, bz)
		refSetBlock(ref, dx, dy, dz, want)
		if err := sameBits(got, ref); err != nil {
			t.Fatalf("DownsampleBlock2 %v -> (%d,%d,%d): %v", r, dx, dy, dz, err)
		}
	}
}

func TestKernelsPanicOutsideField(t *testing.T) {
	f, g := New(4, 4, 4), New(8, 8, 8)
	for name, fn := range map[string]func(){
		"copy src":       func() { CopyBlock(g, 0, 0, 0, f, 2, 0, 0, 3, 1, 1) },
		"copy dst":       func() { CopyBlock(f, 0, 3, 0, g, 0, 0, 0, 1, 2, 1) },
		"copy negative":  func() { CopyBlock(g, 0, 0, -1, f, 0, 0, 0, 1, 1, 1) },
		"range":          func() { f.BlockExtremes(0, 0, 2, 4, 4, 3) },
		"downsample src": func() { DownsampleBlock2(f, 0, 0, 0, g, 4, 4, 4, 6, 2, 2) },
		"downsample dst": func() { DownsampleBlock2(f, 3, 0, 0, g, 0, 0, 0, 4, 4, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestKernelAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	src, dst := nastyField(32, 32, 32, 9), New(32, 32, 32)
	var lo, hi float64
	if n := testing.AllocsPerRun(20, func() {
		CopyBlock(dst, 16, 0, 16, src, 0, 16, 0, 16, 16, 16)
		DownsampleBlock2(dst, 0, 8, 0, src, 16, 16, 16, 16, 16, 16)
		lo, hi = src.BlockExtremes(8, 8, 8, 16, 16, 16)
	}); n != 0 {
		t.Fatalf("block kernels allocate %v times per run, want 0", n)
	}
	_, _ = lo, hi
}
