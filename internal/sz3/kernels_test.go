package sz3

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/field"
	"repro/internal/flatepool"
	"repro/internal/huffman"
	"repro/internal/raceflag"
	"repro/internal/synth"
)

// The reference: the per-sample predict / quantize / reconstruct machinery
// the strided kernels in kernels.go replaced, kept verbatim (with the
// quantizer it called) so that the tests below can hold the kernels to it
// bit for bit. It is deliberately slow and obvious: one closure call per
// sample, the axis decided per sample, the boundary case decided per sample.

// refQuantizer is quant.Quantizer as it stood when the kernels were written.
type refQuantizer struct {
	EB       float64
	Outliers []float64
	outPos   int
}

func (q *refQuantizer) Encode(v, pred float64) (code int32, recon float64) {
	diff := v - pred
	half := q.EB // bin half-width
	k := math.Floor(diff/(2*half) + 0.5)
	if math.Abs(k) >= 32768 || math.IsNaN(k) || math.IsInf(k, 0) {
		q.Outliers = append(q.Outliers, v)
		return 0, v
	}
	r := pred + 2*half*k
	if !(math.Abs(v-r) <= half) {
		q.Outliers = append(q.Outliers, v)
		return 0, v
	}
	return int32(int(k)) + 32768, r
}

func (q *refQuantizer) Decode(code int32, pred float64) float64 {
	if code == 0 {
		v := q.Outliers[q.outPos]
		q.outPos++
		return v
	}
	k := float64(int(code) - 32768)
	return pred + 2*q.EB*k
}

// visit enumerates, for one stride level and one axis pass, every point that
// pass predicts, in a deterministic order shared by encoder and decoder.
// Axis pass conventions (matching SZ3): when filling stride s from stride 2s,
//
//	pass 0 (x): x ≡ s (mod 2s), y ≡ 0 (mod 2s), z ≡ 0 (mod 2s)
//	pass 1 (y): x ≡ 0 (mod s),  y ≡ s (mod 2s), z ≡ 0 (mod 2s)
//	pass 2 (z): x ≡ 0 (mod s),  y ≡ 0 (mod s),  z ≡ s (mod 2s)
func visit(nx, ny, nz, s int, pass int, fn func(x, y, z int)) {
	s2 := 2 * s
	switch pass {
	case 0:
		for z := 0; z < nz; z += s2 {
			for y := 0; y < ny; y += s2 {
				for x := s; x < nx; x += s2 {
					fn(x, y, z)
				}
			}
		}
	case 1:
		for z := 0; z < nz; z += s2 {
			for y := s; y < ny; y += s2 {
				for x := 0; x < nx; x += s {
					fn(x, y, z)
				}
			}
		}
	case 2:
		for z := s; z < nz; z += s2 {
			for y := 0; y < ny; y += s {
				for x := 0; x < nx; x += s {
					fn(x, y, z)
				}
			}
		}
	}
}

// predictor computes the spline prediction for point (x,y,z) along the given
// axis at stride s, using only already-reconstructed values in recon.
type predictor struct {
	recon      []float64
	nx, ny, nz int
	interp     Interpolant
}

func (p *predictor) idx(x, y, z int) int { return x + p.nx*(y+p.ny*z) }

// predict returns the prediction for the point at (x,y,z) along axis
// (0=x,1=y,2=z) with neighbor distance s.
func (p *predictor) predict(x, y, z, axis, s int) float64 {
	var pos, dim int
	switch axis {
	case 0:
		pos, dim = x, p.nx
	case 1:
		pos, dim = y, p.ny
	default:
		pos, dim = z, p.nz
	}
	at := func(q int) float64 {
		switch axis {
		case 0:
			return p.recon[p.idx(q, y, z)]
		case 1:
			return p.recon[p.idx(x, q, z)]
		default:
			return p.recon[p.idx(x, y, q)]
		}
	}
	hasRight := pos+s < dim
	if !hasRight {
		// Boundary: linear extrapolation from the two previous known points
		// (spacing 2s), falling back to constant extrapolation.
		if pos-3*s >= 0 {
			return 1.5*at(pos-s) - 0.5*at(pos-3*s)
		}
		return at(pos - s)
	}
	if p.interp == Cubic && pos-3*s >= 0 && pos+3*s < dim {
		return (-at(pos-3*s) + 9*at(pos-s) + 9*at(pos+s) - at(pos+3*s)) / 16
	}
	return 0.5 * (at(pos-s) + at(pos+s))
}

func refEncodeCore(f *field.Field, interp Interpolant, ebTable []float64, maxLevel int) ([]int32, []float64) {
	nx, ny, nz := f.Nx, f.Ny, f.Nz
	recon := make([]float64, len(f.Data))
	codes := make([]int32, 0, len(f.Data))
	q := &refQuantizer{EB: ebTable[0]}
	p := &predictor{recon: recon, nx: nx, ny: ny, nz: nz, interp: interp}

	// Seed: predict the origin with 0.
	q.EB = ebTable[0]
	c, r := q.Encode(f.Data[0], 0)
	codes = append(codes, c)
	recon[0] = r

	level := 0
	for s := initialStride(nx, ny, nz) / 2; s >= 1; s >>= 1 {
		level++
		q.EB = ebTable[levelIndex(level, maxLevel)]
		for pass := 0; pass < 3; pass++ {
			visit(nx, ny, nz, s, pass, func(x, y, z int) {
				i := p.idx(x, y, z)
				pred := p.predict(x, y, z, pass, s)
				c, r := q.Encode(f.Data[i], pred)
				codes = append(codes, c)
				recon[i] = r
			})
		}
	}
	return codes, q.Outliers
}

func refDecodeCore(nx, ny, nz int, interp Interpolant, ebTable []float64, maxLevel int, codes []int32, outliers []float64) (*field.Field, error) {
	f := field.New(nx, ny, nz)
	recon := f.Data
	q := &refQuantizer{EB: ebTable[0]}
	q.Outliers = outliers
	p := &predictor{recon: recon, nx: nx, ny: ny, nz: nz, interp: interp}

	pos := 0
	next := func() (int32, error) {
		if pos >= len(codes) {
			return 0, errors.New("sz3: code stream underrun")
		}
		c := codes[pos]
		pos++
		return c, nil
	}

	q.EB = ebTable[0]
	c, err := next()
	if err != nil {
		return nil, err
	}
	recon[0] = q.Decode(c, 0)

	level := 0
	var decodeErr error
	for s := initialStride(nx, ny, nz) / 2; s >= 1 && decodeErr == nil; s >>= 1 {
		level++
		q.EB = ebTable[levelIndex(level, maxLevel)]
		for pass := 0; pass < 3 && decodeErr == nil; pass++ {
			visit(nx, ny, nz, s, pass, func(x, y, z int) {
				if decodeErr != nil {
					return
				}
				i := p.idx(x, y, z)
				pred := p.predict(x, y, z, pass, s)
				c, err := next()
				if err != nil {
					decodeErr = err
					return
				}
				recon[i] = q.Decode(c, pred)
			})
		}
	}
	if decodeErr != nil {
		return nil, decodeErr
	}
	if pos != len(codes) {
		return nil, fmt.Errorf("sz3: %d trailing codes", len(codes)-pos)
	}
	return f, nil
}

// testField fills an nx×ny×nz field with a smooth signal plus noise large
// enough, against the bounds the tests use, to spread the codes.
func testField(nx, ny, nz int, seed int64) *field.Field {
	rng := rand.New(rand.NewSource(seed))
	f := field.New(nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				f.Set(x, y, z, math.Sin(0.3*float64(x))*math.Cos(0.2*float64(y))+0.05*float64(z)+0.02*rng.NormFloat64())
			}
		}
	}
	return f
}

// hostile overwrites a tenth of the samples with values that must escape,
// one way or another: NaN and ±Inf themselves, magnitudes whose quantization
// index or whose neighbour sum overflows, and jumps far outside the code
// range.
func hostile(f *field.Field, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, 1.5e308, -1.6e308,
		1e12, -1e12, math.SmallestNonzeroFloat64,
	}
	for i := range f.Data {
		if rng.Intn(10) == 0 {
			f.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// encodeFresh runs encodeCore on arrays of its own.
func encodeFresh(f *field.Field, interp Interpolant, ebTable []float64, maxLevel int) ([]int32, []float64) {
	return encodeCore(f, interp, ebTable, maxLevel, make([]float64, len(f.Data)), make([]int32, len(f.Data)), nil)
}

// checkAgainstReference holds encodeCore and decodeCore to the reference:
// same codes, the same outliers bit for bit, and the same bits in every
// reconstructed sample.
func checkAgainstReference(t *testing.T, f *field.Field, opt Options) {
	t.Helper()
	ebTable, maxLevel, err := buildEBTable(nil, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantCodes, wantOut := refEncodeCore(f, opt.Interp, ebTable, maxLevel)
	codes, out := encodeFresh(f, opt.Interp, ebTable, maxLevel)
	if len(codes) != len(wantCodes) {
		t.Fatalf("%d codes, reference %d", len(codes), len(wantCodes))
	}
	for i := range codes {
		if codes[i] != wantCodes[i] {
			t.Fatalf("code %d = %d, reference %d", i, codes[i], wantCodes[i])
		}
	}
	if len(out) != len(wantOut) {
		t.Fatalf("%d outliers, reference %d", len(out), len(wantOut))
	}
	for i := range out {
		if math.Float64bits(out[i]) != math.Float64bits(wantOut[i]) {
			t.Fatalf("outlier %d = %v, reference %v", i, out[i], wantOut[i])
		}
	}
	want, err := refDecodeCore(f.Nx, f.Ny, f.Nz, opt.Interp, ebTable, maxLevel, wantCodes, wantOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeCore(field.New(f.Nx, f.Ny, f.Nz), opt.Interp, ebTable, maxLevel, codes, out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("sample %d = %v, reference %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestKernelsMatchReference(t *testing.T) {
	dims := [][3]int{
		// The shapes SZ3MR hands over (17×17×4096, 9×9×2048), scaled down.
		{17, 17, 64}, {9, 9, 32},
		// Not powers of two, nor one more than one.
		{5, 7, 11}, {33, 20, 3}, {20, 17, 13},
		// Powers of two: the last point of every row, at every stride, has
		// no right neighbour. 12, 10, 14, 6: it has none at some strides.
		{16, 8, 4}, {12, 10, 14}, {6, 6, 6}, {2, 2, 2},
		// Degenerate.
		{1, 6, 9}, {7, 1, 5}, {1, 1, 13}, {7, 1, 1}, {1, 40, 1}, {1, 1, 1},
	}
	for _, d := range dims {
		for _, interp := range []Interpolant{Linear, Cubic} {
			name := fmt.Sprintf("%dx%dx%d/interp%d", d[0], d[1], d[2], interp)
			smooth := testField(d[0], d[1], d[2], 11)
			eb := 1e-2
			t.Run(name+"/uniform", func(t *testing.T) {
				checkAgainstReference(t, smooth, Options{EB: eb, Interp: interp})
			})
			t.Run(name+"/adaptive", func(t *testing.T) {
				checkAgainstReference(t, smooth, Options{EB: eb, Interp: interp, LevelEB: AdaptiveLevelEB(eb, 2.25, 8)})
			})
			t.Run(name+"/hostile", func(t *testing.T) {
				f := testField(d[0], d[1], d[2], 12)
				hostile(f, 13)
				checkAgainstReference(t, f, Options{EB: 1e-3, Interp: interp, LevelEB: AdaptiveLevelEB(1e-3, 2.25, 8)})
			})
		}
	}
}

// TestKernelsMatchReferenceRandomDims sweeps small random shapes, where
// every boundary case is a large share of the points.
func TestKernelsMatchReferenceRandomDims(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		f := testField(1+rng.Intn(14), 1+rng.Intn(14), 1+rng.Intn(14), int64(i))
		if i%3 == 0 {
			hostile(f, int64(i))
		}
		checkAgainstReference(t, f, Options{EB: 5e-3, Interp: Interpolant(i % 2)})
	}
}

// TestHostileEscapeCount: the codes say how many outliers a stream needs.
// A stream with fewer used to index past the list (a panic only core's
// recover hid), one with more had the surplus ignored; both are errors now.
func TestHostileEscapeCount(t *testing.T) {
	f := testField(9, 9, 16, 5)
	f.Data[40], f.Data[700] = 1e9, math.NaN() // honest escapes, and those of the points predicted from them
	opt := Options{EB: 1e-2}
	ebTable, maxLevel, err := buildEBTable(nil, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	codes, outliers := encodeFresh(f, opt.Interp, ebTable, maxLevel)
	if len(outliers) < 2 {
		t.Fatalf("test field has %d escapes, want at least 2", len(outliers))
	}
	stream := func(codes []int32, outliers []float64) []byte {
		t.Helper()
		blob, err := flatepool.Deflate(nil, appendPayload(nil, f.Nx, f.Ny, f.Nz, opt.Interp, ebTable, huffman.Encode(codes), outliers))
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if _, err := Decompress(nil, stream(codes, outliers)); err != nil {
		t.Fatalf("honest stream: %v", err)
	}

	moreZeros := append([]int32(nil), codes...)
	for i, n := 0, 0; n < 3; i++ {
		if moreZeros[i] != 0 {
			moreZeros[i] = 0
			n++
		}
	}
	for name, tc := range map[string]struct {
		blob []byte
		want string
	}{
		"no outliers at all":   {stream(codes, nil), "sz3: outlier underrun"},
		"one outlier short":    {stream(codes, outliers[:len(outliers)-1]), "sz3: outlier underrun"},
		"three escapes added":  {stream(moreZeros, outliers), "sz3: outlier underrun"},
		"one outlier too many": {stream(codes, append(outliers[:len(outliers):len(outliers)], 7)), "sz3: 1 trailing outliers"},
		"every code an escape": {stream(make([]int32, len(codes)), outliers), "sz3: outlier underrun"},
	} {
		g, err := Decompress(nil, tc.blob) // a panic here fails the test: nothing recovers
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
		if g != nil {
			t.Errorf("%s: a field came back with the error", name)
		}
	}
}

// TestAllocBudget holds Compress and Decompress to what they return: the
// working arrays, the entropy coder's tables and the inflate decoder come
// from pools, so a compress allocates only the growth of dst (measured: 1)
// and a decode only the field it returns (2, its header and samples) —
// nothing when it decodes into a reused field. Before the arrays were
// pooled, a compress measured 12 and a decode 5.
func TestAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	// A field noisy enough for an alphabet of several hundred symbols: the
	// code-length build boxed one int per heap operation above 255.
	f := synth.GenerateDims(synth.Nyx, 17, 17, 256, 1)
	opt := Options{EB: f.ValueRange() * 1e-5, LevelEB: AdaptiveLevelEB(f.ValueRange()*1e-5, 2.25, 8)}
	blob, err := Compress(nil, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	codes, err := Codes(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int32]bool{}
	for _, c := range codes {
		distinct[c] = true
	}
	if len(distinct) < 500 {
		t.Fatalf("only %d distinct codes: the field no longer exercises a large alphabet", len(distinct))
	}
	// No collection during the measurement: a GC empties the pools, and
	// refilling them would add a run-dependent allocation or two.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	reused := field.New(f.Nx, f.Ny, f.Nz)
	for _, tc := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"Compress", 2, func() error { _, err := Compress(nil, f, opt); return err }},
		{"Decompress", 2, func() error { _, err := Decompress(nil, blob); return err }},
		{"Decompress into a reused field", 0, func() error { _, err := Decompress(reused, blob); return err }},
	} {
		if n := testing.AllocsPerRun(10, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		}); n > tc.budget {
			t.Errorf("%s allocates %v times per stream, budget %v", tc.name, n, tc.budget)
		}
	}
}
