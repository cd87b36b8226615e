package sz2

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/flatepool"
	"repro/internal/synth"
)

func smoothField(n int) *field.Field {
	f := field.New(n, n, n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				px, py, pz := float64(x)/float64(n), float64(y)/float64(n), float64(z)/float64(n)
				f.Set(x, y, z, math.Sin(5*px)*math.Cos(4*py)*math.Exp(pz))
			}
		}
	}
	return f
}

func TestRoundTripWithinBound(t *testing.T) {
	f := smoothField(20)
	for _, eb := range []float64{1e-2, 1e-4} {
		data, err := Compress(nil, f, Options{EB: eb})
		if err != nil {
			t.Fatal(err)
		}
		g, err := Decompress(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		if d := f.MaxAbsDiff(g); d > eb*(1+1e-12) {
			t.Fatalf("eb=%g: max error %g", eb, d)
		}
	}
}

// wireBlockSize reads the block size a stream's header records.
func wireBlockSize(t *testing.T, data []byte) int {
	t.Helper()
	in, err := flatepool.Inflate(data)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Release()
	hdr := in.Bytes()
	if hdr[4] != 0 {
		return int(hdr[4])
	}
	bs, _ := binary.Uvarint(hdr[5:]) // escaped: block size > 255
	return int(bs)
}

func TestBlockSizeAbove255(t *testing.T) {
	// Block sizes > 255 use the escaped header encoding (the old writer
	// silently truncated them to their low byte).
	f := smoothField(17)
	eb := 1e-3
	for _, want := range []int{200, 256, 1000} {
		data, err := Compress(nil, f, Options{EB: eb, BlockSize: want})
		if err != nil {
			t.Fatalf("bs=%d: %v", want, err)
		}
		if bs := wireBlockSize(t, data); bs != want {
			t.Fatalf("wire block size = %d, want %d", bs, want)
		}
		g, err := Decompress(nil, data)
		if err != nil {
			t.Fatalf("bs=%d: %v", want, err)
		}
		if d := f.MaxAbsDiff(g); d > eb*(1+1e-12) {
			t.Fatalf("bs=%d: max error %g", want, d)
		}
	}
}

func TestBlockSize4(t *testing.T) {
	f := smoothField(17) // not a multiple of 4: partial blocks
	eb := 1e-3
	data, err := Compress(nil, f, Options{EB: eb, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bs := wireBlockSize(t, data); bs != 4 {
		t.Fatalf("wire block size = %d, want 4", bs)
	}
	g, err := Decompress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.MaxAbsDiff(g); d > eb*(1+1e-12) {
		t.Fatalf("max error %g", d)
	}
}

func TestNonCubeDims(t *testing.T) {
	f := field.New(13, 7, 29)
	rng := rand.New(rand.NewSource(2))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	eb := 0.05
	data, err := Compress(nil, f, Options{EB: eb})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.MaxAbsDiff(g); d > eb*(1+1e-12) {
		t.Fatalf("max error %g", d)
	}
}

func TestRegressionWinsOnPlanarData(t *testing.T) {
	// A pure plane should be predicted essentially exactly by regression.
	f := field.New(12, 12, 12)
	for z := 0; z < 12; z++ {
		for y := 0; y < 12; y++ {
			for x := 0; x < 12; x++ {
				f.Set(x, y, z, 2+0.5*float64(x)-0.25*float64(y)+0.125*float64(z))
			}
		}
	}
	w := new(scratch).newSweep(12, 12, 6, 1e-6)
	useReg, _ := w.chooseMode(f, 0, 0, 0, 6, 6, 6)
	if !useReg {
		t.Fatal("regression should win on planar data")
	}
	data, err := Compress(nil, f, Options{EB: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	cr := float64(f.Bytes()) / float64(len(data))
	if cr < 20 {
		t.Fatalf("planar data should compress extremely well, CR=%.1f", cr)
	}
}

func TestLorenzoPredictorExactOnTrilinear(t *testing.T) {
	// Lorenzo exactly predicts any sum of two-variable functions; the
	// third mixed difference of such fields is zero.
	f := field.New(5, 5, 5)
	for z := 0; z < 5; z++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 5; x++ {
				f.Set(x, y, z, 1+float64(x)+2*float64(y)+3*float64(z)+
					float64(x*y)+float64(y*z)+float64(x*z))
			}
		}
	}
	for z := 1; z < 5; z++ {
		for y := 1; y < 5; y++ {
			for x := 1; x < 5; x++ {
				pred := lorenzo(f.Data, 5, 5, x, y, z)
				if math.Abs(pred-f.At(x, y, z)) > 1e-9 {
					t.Fatalf("Lorenzo not exact at (%d,%d,%d): %g vs %g",
						x, y, z, pred, f.At(x, y, z))
				}
			}
		}
	}
}

func TestFitPlaneRecoversPlane(t *testing.T) {
	f := field.New(8, 8, 8)
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				f.Set(x, y, z, 3-0.5*float64(x)+0.75*float64(y)+0.1*float64(z))
			}
		}
	}
	c := fitPlane(f, 0, 0, 0, 8, 8, 8)
	want := [4]float64{3, -0.5, 0.75, 0.1}
	for i := range c {
		if math.Abs(c[i]-want[i]) > 1e-9 {
			t.Fatalf("coef %d = %g, want %g", i, c[i], want[i])
		}
	}
}

func TestPackUnpackBits(t *testing.T) {
	flags := []byte{1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1}
	got := unpackBits(packBits(flags), len(flags))
	for i := range flags {
		if got[i] != flags[i] {
			t.Fatalf("bit %d: got %d want %d", i, got[i], flags[i])
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	f := smoothField(8)
	if _, err := Compress(nil, f, Options{EB: 0}); err == nil {
		t.Fatal("expected error for zero eb")
	}
	if _, err := Compress(nil, f, Options{EB: math.NaN()}); err == nil {
		t.Fatal("expected error for NaN eb")
	}
	if _, err := Compress(nil, f, Options{EB: 1, BlockSize: 1}); err == nil {
		t.Fatal("expected error for block size 1")
	}
	if _, err := Decompress(nil, []byte{9, 9}); err == nil {
		t.Fatal("expected error for garbage")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny, nz := 1+rng.Intn(14), 1+rng.Intn(14), 1+rng.Intn(14)
		f := field.New(nx, ny, nz)
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64() * 100
		}
		eb := 0.01
		bs := []int{4, 6}[rng.Intn(2)]
		data, err := Compress(nil, f, Options{EB: eb, BlockSize: bs})
		if err != nil {
			return false
		}
		g, err := Decompress(nil, data)
		if err != nil {
			return false
		}
		return f.MaxAbsDiff(g) <= eb*(1+1e-12)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRealisticDataset(t *testing.T) {
	f := synth.Generate(synth.S3D, 24, 4)
	eb := f.ValueRange() * 1e-3
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
	cr := float64(f.Bytes()) / float64(len(data))
	if cr < 3 {
		t.Fatalf("CR %.1f too low for S3D at 1e-3 rel eb", cr)
	}
}

// TestHostileEscapeCount: the zero codes say how many outliers a stream
// needs. One with fewer used to index past the list — a panic only core's
// recover hid — and one with more had the surplus ignored; both are errors.
func TestHostileEscapeCount(t *testing.T) {
	f := smoothField(12)
	f.Data[100], f.Data[900] = 1e9, math.NaN() // honest escapes
	blob, err := Compress(nil, f, Options{EB: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(nil, blob); err != nil {
		t.Fatalf("honest stream: %v", err)
	}
	in, err := flatepool.Inflate(blob)
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), in.Bytes()...)
	in.Release()

	// The outlier list is the last of four length-prefixed chunks; walk to it.
	at := 4 + 1              // magic, block size
	for i := 0; i < 3; i++ { // nx, ny, nz
		_, n := binary.Uvarint(payload[at:])
		at += n
	}
	at += 8                  // eb
	for i := 0; i < 3; i++ { // modes, coefficient codes, codes
		l, n := binary.Uvarint(payload[at:])
		at += n + int(l)
	}
	l, n := binary.Uvarint(payload[at:])
	outliers := payload[at+n:]
	if int(l) != len(outliers) || l < 16 {
		t.Fatalf("outlier chunk of %d bytes, %d left in the payload", l, len(outliers))
	}
	withOutliers := func(out []byte) []byte {
		t.Helper()
		p := append([]byte(nil), payload[:at]...)
		p = binary.AppendUvarint(p, uint64(len(out)))
		blob, err := flatepool.Deflate(nil, append(p, out...))
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for name, tc := range map[string]struct {
		blob []byte
		want string
	}{
		"one outlier short":    {withOutliers(outliers[:len(outliers)-8]), "sz2: outlier underrun"},
		"no outliers at all":   {withOutliers(nil), "sz2: outlier underrun"},
		"one outlier too many": {withOutliers(append(outliers[:len(outliers):len(outliers)], make([]byte, 8)...)), "sz2: 1 trailing outliers"},
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
