package sz3

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
				f.Set(x, y, z, math.Sin(4*px)*math.Cos(3*py)+pz*pz)
			}
		}
	}
	return f
}

func TestRoundTripWithinBound(t *testing.T) {
	f := smoothField(20)
	for _, eb := range []float64{1e-2, 1e-4, 1e-6} {
		data, err := Compress(nil, f, Options{EB: eb})
		if err != nil {
			t.Fatal(err)
		}
		g, err := Decompress(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		if !f.SameShape(g) {
			t.Fatalf("shape mismatch")
		}
		if d := f.MaxAbsDiff(g); d > eb*(1+1e-12) {
			t.Fatalf("eb=%g: max error %g exceeds bound", eb, d)
		}
	}
}

func TestCubicRoundTripWithinBound(t *testing.T) {
	f := smoothField(24)
	eb := 1e-4
	data, err := Compress(nil, f, Options{EB: eb, Interp: Cubic})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.MaxAbsDiff(g); d > eb*(1+1e-12) {
		t.Fatalf("cubic: max error %g exceeds %g", d, eb)
	}
}

func TestNonCubeDims(t *testing.T) {
	// Shapes like the paper's merged arrays: two small dims, one long dim.
	f := field.New(9, 9, 128)
	rng := rand.New(rand.NewSource(1))
	for i := range f.Data {
		f.Data[i] = math.Sin(float64(i)/50) + 0.01*rng.NormFloat64()
	}
	eb := 1e-3
	data, err := Compress(nil, f, Options{EB: eb})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.MaxAbsDiff(g); d > eb*(1+1e-12) {
		t.Fatalf("max error %g exceeds %g", d, eb)
	}
}

func TestDim1Axes(t *testing.T) {
	// 2D and 1D degenerate shapes must work (merged levels can be thin).
	for _, dims := range [][3]int{{16, 16, 1}, {1, 32, 1}, {1, 1, 17}, {5, 1, 9}} {
		f := field.New(dims[0], dims[1], dims[2])
		for i := range f.Data {
			f.Data[i] = float64(i % 7)
		}
		data, err := Compress(nil, f, Options{EB: 0.01})
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		g, err := Decompress(nil, data)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if d := f.MaxAbsDiff(g); d > 0.01*(1+1e-12) {
			t.Fatalf("%v: max error %g", dims, d)
		}
	}
}

func TestSingleVoxel(t *testing.T) {
	f := field.New(1, 1, 1)
	f.Data[0] = 3.25
	data, err := Compress(nil, f, Options{EB: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Data[0]-3.25) > 0.1 {
		t.Fatalf("single voxel error %g", math.Abs(g.Data[0]-3.25))
	}
}

func TestAdaptiveLevelEBWithinOverallBound(t *testing.T) {
	// Adaptive per-level bounds only tighten: overall error stays ≤ EB.
	f := smoothField(16)
	eb := 1e-3
	opt := Options{EB: eb, LevelEB: AdaptiveLevelEB(eb, 2.25, 8)}
	data, err := Compress(nil, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.MaxAbsDiff(g); d > eb*(1+1e-12) {
		t.Fatalf("adaptive eb: max error %g exceeds %g", d, eb)
	}
}

func TestAdaptiveLevelEBValues(t *testing.T) {
	fn := AdaptiveLevelEB(1.0, 2.25, 8)
	// Finest level gets the full bound.
	if got := fn(5, 5); got != 1.0 {
		t.Fatalf("finest level eb = %g, want 1", got)
	}
	// One level coarser: eb/2.25.
	if got := fn(4, 5); math.Abs(got-1/2.25) > 1e-15 {
		t.Fatalf("level 4 eb = %g, want %g", got, 1/2.25)
	}
	// Very coarse levels capped at eb/8.
	if got := fn(1, 10); got != 1.0/8 {
		t.Fatalf("coarse level eb = %g, want 1/8", got)
	}
}

func TestCompressionBeatsRawOnSmoothData(t *testing.T) {
	f := smoothField(32)
	data, err := Compress(nil, f, Options{EB: f.ValueRange() * 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	cr := float64(f.Bytes()) / float64(len(data))
	if cr < 5 {
		t.Fatalf("compression ratio %.1f too low for smooth data", cr)
	}
}

func TestInvalidInputs(t *testing.T) {
	f := smoothField(4)
	if _, err := Compress(nil, f, Options{EB: 0}); err == nil {
		t.Fatal("expected error for zero eb")
	}
	// NaN fails every comparison: the write-side check must reject it as
	// the decoder does, not write an eb table no decoder accepts.
	if _, err := Compress(nil, f, Options{EB: math.NaN()}); err == nil {
		t.Fatal("expected error for NaN eb")
	}
	if _, err := Decompress(nil, []byte{1, 2, 3}); err == nil {
		t.Fatal("expected error for garbage input")
	}
	good, _ := Compress(nil, f, Options{EB: 0.1})
	if _, err := Decompress(nil, good[:len(good)/2]); err == nil {
		t.Fatal("expected error for truncated input")
	}
}

func TestMaxLevelFor(t *testing.T) {
	cases := []struct {
		nx, ny, nz, want int
	}{
		{8, 8, 8, 3}, {9, 4, 4, 4}, {1, 1, 1, 1}, {2, 2, 2, 1}, {128, 4, 4, 7},
	}
	for _, c := range cases {
		if got := MaxLevelFor(c.nx, c.ny, c.nz); got != c.want {
			t.Fatalf("MaxLevelFor(%d,%d,%d) = %d, want %d", c.nx, c.ny, c.nz, got, c.want)
		}
	}
}

// TestInterpolation8 mirrors Fig. 7 of the paper: for an 8-point 1D block,
// the interior points at indices 4 (stride 4) and 6 (stride 2) and the last
// point 7 (stride 1) lack a right neighbor and are extrapolated.
func TestInterpolation8(t *testing.T) {
	p := &predictor{recon: make([]float64, 8), nx: 8, ny: 1, nz: 1, interp: Linear}
	for i := range p.recon {
		p.recon[i] = float64(i) // linear data
	}
	// Index 4 at stride 4: right neighbor 8 out of bounds, only constant
	// extrapolation from index 0 available → suboptimal prediction (0 ≠ 4).
	if got := p.predict(4, 0, 0, 0, 4); got != 0 {
		t.Fatalf("extrapolated d5 = %g, want 0 (constant from d1)", got)
	}
	// Index 6 at stride 2: linear extrapolation 1.5·recon[4] − 0.5·recon[0].
	if got := p.predict(6, 0, 0, 0, 2); got != 6 {
		t.Fatalf("extrapolated d7 = %g, want 6", got)
	}
	// Interior midpoint with both neighbors: exact for linear data.
	if got := p.predict(2, 0, 0, 0, 2); got != 2 {
		t.Fatalf("interpolated d3 = %g, want 2", got)
	}
	// The kernels pick the same three cases.
	if a, b, c := modeAt(4, 8, 4, Linear), modeAt(6, 8, 2, Linear), modeAt(2, 8, 2, Linear); a != modeConst || b != modeExtrap || c != modeLinear {
		t.Fatalf("modes of d5, d7, d3 = %d, %d, %d, want constant, extrapolated, linear", a, b, c)
	}
}

// TestPadding9 mirrors Fig. 8: with one padded point (9 samples), every
// interior point has both neighbors and is interpolated, not extrapolated.
func TestPadding9(t *testing.T) {
	p := &predictor{recon: make([]float64, 9), nx: 9, ny: 1, nz: 1, interp: Linear}
	for i := range p.recon {
		p.recon[i] = float64(i)
	}
	// Index 4 at stride 4 now has neighbors 0 and 8 → exact interpolation.
	if got := p.predict(4, 0, 0, 0, 4); got != 4 {
		t.Fatalf("interpolated d5 = %g, want 4", got)
	}
	// Index 6 at stride 2 has neighbors 4 and 8 → exact.
	if got := p.predict(6, 0, 0, 0, 2); got != 6 {
		t.Fatalf("interpolated d7 = %g, want 6", got)
	}
	// With the padded point no coordinate of any level is extrapolated.
	for s := 4; s >= 1; s /= 2 {
		for x := s; x < 9; x += 2 * s {
			if m := modeAt(x, 9, s, Linear); m != modeLinear {
				t.Fatalf("point %d at stride %d has mode %d, want linear", x, s, m)
			}
		}
	}
}

func TestVisitCoversAllPointsExactlyOnce(t *testing.T) {
	// Property: the seed plus all (level, pass) visits enumerate every point
	// of the domain exactly once.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny, nz := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		seen := make([]int, nx*ny*nz)
		seen[0]++ // seed
		for s := initialStride(nx, ny, nz) / 2; s >= 1; s >>= 1 {
			for pass := 0; pass < 3; pass++ {
				visit(nx, ny, nz, s, pass, func(x, y, z int) {
					seen[x+nx*(y+ny*z)]++
				})
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripRandomFields(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny, nz := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		f := field.New(nx, ny, nz)
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6))-3)
		}
		eb := 1e-3
		data, err := Compress(nil, f, Options{EB: eb, Interp: Interpolant(rng.Intn(2))})
		if err != nil {
			return false
		}
		g, err := Decompress(nil, data)
		if err != nil {
			return false
		}
		return f.MaxAbsDiff(g) <= eb*(1+1e-12)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRealisticDatasets(t *testing.T) {
	for _, kind := range []synth.Dataset{synth.Nyx, synth.WarpX} {
		f := synth.Generate(kind, 24, 3)
		eb := f.ValueRange() * 1e-3
		data, err := Compress(nil, f, Options{EB: eb})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		g, err := Decompress(nil, data)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if d := f.MaxAbsDiff(g); d > eb*(1+1e-12) {
			t.Fatalf("%s: error %g exceeds %g", kind, d, eb)
		}
	}
}
