package sz2

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/flatepool"
	"repro/internal/huffman"
	"repro/internal/raceflag"
	"repro/internal/synth"
)

// testField fills an nx×ny×nz field with a smooth signal plus noise, so that
// both modes win some blocks at the bounds the tests use.
func testField(nx, ny, nz int, seed int64) *field.Field {
	rng := rand.New(rand.NewSource(seed))
	f := field.New(nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := math.Sin(0.3*float64(x))*math.Cos(0.2*float64(y)) + 0.05*float64(z)
				if (x/4+y/4+z/4)%3 == 0 {
					v = 0.5*float64(x) - 0.25*float64(y) + 0.1*float64(z) // planar: regression wins
				}
				f.Set(x, y, z, v+0.02*rng.NormFloat64())
			}
		}
	}
	return f
}

// hostile overwrites a tenth of the samples with values that must escape:
// NaN and ±Inf, magnitudes whose prediction or plane fit overflows, and
// jumps far outside the code range. -0 samples ride along, since a zero
// neighbour added to -0 is where a reordered sum would show.
func hostile(f *field.Field, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, 1.5e308, -1.6e308,
		1e12, -1e12, math.SmallestNonzeroFloat64, math.Copysign(0, -1),
	}
	for i := range f.Data {
		if rng.Intn(10) == 0 {
			f.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// checkAgainstReference holds the kernels to the per-sample reference: the
// same codes, mode bitmap, coefficient codes and escaped samples from one
// scratch s (reused across calls, as a pooled one is), the same stream
// bytes, and the same bits in every decoded sample.
func checkAgainstReference(t *testing.T, s *scratch, f *field.Field, eb float64, bs int) {
	t.Helper()
	wantCodes, wantModes, wantCoefs, wantOut := refEncode(f, eb, bs)
	s.encode(f, eb, bs)
	if !slices.Equal(s.codes, wantCodes) {
		t.Fatalf("codes differ from the reference")
	}
	if !bytes.Equal(s.modes, packBits(wantModes)) {
		t.Fatalf("mode bitmap %x, reference %x", s.modes, packBits(wantModes))
	}
	if !slices.Equal(s.coefCodes, wantCoefs) {
		t.Fatalf("coefficient codes %v, reference %v", s.coefCodes, wantCoefs)
	}
	if len(s.outliers) != len(wantOut) {
		t.Fatalf("%d escapes, reference %d", len(s.outliers), len(wantOut))
	}
	for i := range wantOut {
		if math.Float64bits(s.outliers[i]) != math.Float64bits(wantOut[i]) {
			t.Fatalf("escape %d = %v, reference %v", i, s.outliers[i], wantOut[i])
		}
	}

	opt := Options{EB: eb, BlockSize: bs}
	want, err := refCompress(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Compress(nil, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("stream of %d bytes differs from the reference's %d", len(blob), len(want))
	}
	wantF, err := refDecompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(nil, blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(wantF.Data[i]) {
			t.Fatalf("sample %d = %v, reference %v", i, got.Data[i], wantF.Data[i])
		}
	}
}

func TestKernelsMatchReference(t *testing.T) {
	dims := [][3]int{
		// TAC boxes and the golden fixture's shape.
		{16, 16, 16}, {20, 17, 13},
		// Not multiples of the block sizes: partial blocks on every axis.
		{13, 7, 29}, {5, 7, 11}, {33, 3, 2},
		// Degenerate: whole rows, planes or the field at the boundary.
		{1, 6, 9}, {7, 1, 5}, {1, 1, 13}, {9, 1, 1}, {1, 1, 1},
	}
	s := new(scratch)
	for _, d := range dims {
		for _, bs := range []int{2, 3, 4, 6, 300} {
			name := fmt.Sprintf("%dx%dx%d/bs%d", d[0], d[1], d[2], bs)
			t.Run(name+"/smooth", func(t *testing.T) {
				checkAgainstReference(t, s, testField(d[0], d[1], d[2], 11), 1e-2, bs)
			})
			t.Run(name+"/hostile", func(t *testing.T) {
				f := testField(d[0], d[1], d[2], 12)
				hostile(f, 13)
				checkAgainstReference(t, s, f, 1e-3, bs)
			})
		}
	}
}

// TestKernelsMatchReferenceRandomDims sweeps small random shapes, where the
// boundary rows are a large share of the samples.
func TestKernelsMatchReferenceRandomDims(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := new(scratch)
	for i := 0; i < 150; i++ {
		f := testField(1+rng.Intn(14), 1+rng.Intn(14), 1+rng.Intn(14), int64(i))
		if i%3 == 0 {
			hostile(f, int64(i))
		}
		checkAgainstReference(t, s, f, 5e-3, 2+rng.Intn(6))
	}
}

// chunks returns the inflated payload of an sz2 stream and the offsets of
// its four length-prefixed chunks (modes, coefficient codes, codes,
// escaped samples): chunk i is payload[at[i]:at[i+1]], length prefix
// included.
func chunks(t *testing.T, blob []byte) (payload []byte, at [5]int) {
	t.Helper()
	in, err := flatepool.Inflate(blob)
	if err != nil {
		t.Fatal(err)
	}
	payload = append([]byte(nil), in.Bytes()...)
	in.Release()
	at[0] = 4 + 1            // magic, block size
	for i := 0; i < 3; i++ { // nx, ny, nz
		_, n := binary.Uvarint(payload[at[0]:])
		at[0] += n
	}
	at[0] += 8 // eb
	for i := 0; i < 4; i++ {
		l, n := binary.Uvarint(payload[at[i]:])
		at[i+1] = at[i] + n + int(l)
	}
	if at[4] != len(payload) {
		t.Fatalf("chunks end at %d of %d payload bytes", at[4], len(payload))
	}
	return payload, at
}

// withChunk returns blob with chunk i's contents replaced by c.
func withChunk(t *testing.T, blob []byte, i int, c []byte) []byte {
	t.Helper()
	payload, at := chunks(t, blob)
	p := append([]byte(nil), payload[:at[i]]...)
	p = binary.AppendUvarint(p, uint64(len(c)))
	p = append(append(p, c...), payload[at[i+1]:]...)
	out, err := flatepool.Deflate(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// chunkBytes returns chunk i's contents.
func chunkBytes(t *testing.T, blob []byte, i int) []byte {
	t.Helper()
	payload, at := chunks(t, blob)
	_, n := binary.Uvarint(payload[at[i]:])
	return payload[at[i]+n : at[i+1]]
}

// TestHostileModeBitmap: the mode bitmap must hold exactly one bit per
// block and the regression blocks must consume every coefficient code. A
// short bitmap used to be padded with zeros — Lorenzo — and leftover
// coefficient codes were ignored, so a truncated or tampered stream decoded
// to wrong data without an error.
func TestHostileModeBitmap(t *testing.T) {
	f := testField(24, 16, 12, 4) // 6·4·3 = 72 blocks of 4³: a 9-byte bitmap
	blob, err := Compress(nil, f, Options{EB: 1e-3, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(nil, blob); err != nil {
		t.Fatalf("honest stream: %v", err)
	}
	modes := chunkBytes(t, blob, 0)
	if len(modes) != 9 || bytes.Count(modes, []byte{0}) == len(modes) {
		t.Fatalf("bitmap %x: the field should give 9 bytes with regression blocks", modes)
	}
	coefs, err := huffman.Decode(chunkBytes(t, blob, 1))
	if err != nil {
		t.Fatal(err)
	}
	cleared := append([]byte(nil), modes...)
	last := -1
	for b := range cleared {
		if cleared[b] != 0 {
			last = b
		}
	}
	cleared[last] &= cleared[last] - 1 // one regression block fewer
	for name, tc := range map[string]struct {
		blob []byte
		want string
	}{
		"bitmap one byte short":       {withChunk(t, blob, 0, modes[:len(modes)-1]), "sz2: 8-byte mode bitmap for 72 blocks"},
		"bitmap empty":                {withChunk(t, blob, 0, nil), "sz2: 0-byte mode bitmap for 72 blocks"},
		"bitmap one byte long":        {withChunk(t, blob, 0, append(modes[:len(modes):len(modes)], 0)), "sz2: 10-byte mode bitmap for 72 blocks"},
		"one regression block fewer":  {withChunk(t, blob, 0, cleared), "sz2: 4 trailing coefficient codes"},
		"four coefficient codes more": {withChunk(t, blob, 1, huffman.Encode(append(coefs[:len(coefs):len(coefs)], 1, 2, 3, 4))), "sz2: 4 trailing coefficient codes"},
		"coefficient codes missing":   {withChunk(t, blob, 1, huffman.Encode(coefs[:len(coefs)-4])), "sz2: coefficient stream underrun"},
	} {
		g, err := Decompress(nil, tc.blob)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
		if g != nil {
			t.Errorf("%s: a field came back with the error", name)
		}
	}
}

// TestAllocBudget holds Compress and Decompress of a 16³ box — the size of
// the TAC boxes the container pipeline codes by the dozen — to what they
// return plus the flate writer's own per-stream allocations: the working
// arrays, the entropy coder's tables and the inflate decoder come from
// pools.
func TestAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	f := synth.GenerateDims(synth.WarpX, 16, 16, 16, 5)
	f.Data[100] = math.NaN() // one escape, so the outlier path is paid too
	opt := Options{EB: f.ValueRange() * 1e-3, BlockSize: MultiResBlockSize}
	blob, err := Compress(nil, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	// No collection during the measurement: a GC empties the pools, and
	// refilling them would add a run-dependent allocation or two.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(fn func() error) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The stream, and what compress/flate allocates as it grows it.
	if n := allocs(func() error { _, err := Compress(nil, f, opt); return err }); n > 4 {
		t.Errorf("Compress allocates %v times per 16³ box, budget 4", n)
	}
	// Inflating allocates nothing in steady state (flatepool's own test
	// holds it to 0); on top of it Decompress may allocate only the field
	// it returns, header and samples.
	inflate := allocs(func() error {
		in, err := flatepool.Inflate(blob)
		if err == nil {
			in.Release()
		}
		return err
	})
	if n := allocs(func() error { _, err := Decompress(nil, blob); return err }); n > inflate+2 {
		t.Errorf("Decompress allocates %v times per 16³ box, budget %v (inflate %v + 2)", n, inflate+2, inflate)
	}
}

// TestPooledScratchIsBounded: a scratch that coded a stream larger than the
// pool keeps is dropped, not pooled.
func TestPooledScratchIsBounded(t *testing.T) {
	big := new(scratch)
	big.recon = make([]float64, maxPooledBytes/8+1)
	putScratch(big)
	for i := 0; i < 100; i++ {
		if s := getScratch(); s == big {
			t.Fatal("an oversized scratch came back from the pool")
		}
	}
}
