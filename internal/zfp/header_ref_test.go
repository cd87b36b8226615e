package zfp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/flatepool"
	"repro/internal/index"
	"repro/internal/wire"
)

// handParsedDecompress is Decompress as it was before its header moved onto
// wire.Reader, every read and bound written out by hand: the reference
// TestHeaderParseMatchesReference holds Decompress to.
func handParsedDecompress(dst *field.Field, data []byte) (*field.Field, error) {
	inflated, err := flatepool.Inflate(data)
	if err != nil {
		return nil, fmt.Errorf("zfp: inflate: %w", err)
	}
	// Everything below copies what it keeps out of the pooled payload.
	defer inflated.Release()
	payload := inflated.Bytes()
	if len(payload) < 4 || string(payload[:4]) != magic {
		return nil, errors.New("zfp: bad magic")
	}
	buf := payload[4:]
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, errors.New("zfp: truncated header")
		}
		buf = buf[n:]
		return v, nil
	}
	nx64, err := readUvarint()
	if err != nil {
		return nil, err
	}
	ny64, err := readUvarint()
	if err != nil {
		return nil, err
	}
	nz64, err := readUvarint()
	if err != nil {
		return nil, err
	}
	nx, ny, nz, _, err := field.CheckDims(nx64, ny64, nz64)
	if err != nil {
		return nil, errors.New("zfp: invalid dims")
	}
	if len(buf) < 8 {
		return nil, errors.New("zfp: truncated tolerance")
	}
	tol := math.Float64frombits(binary.LittleEndian.Uint64(buf))
	buf = buf[8:]
	if !(tol > 0) {
		return nil, errors.New("zfp: invalid tolerance")
	}
	nBlocks64, err := readUvarint()
	if err != nil {
		return nil, err
	}
	// Compare in uint64: int(nBlocks64) can wrap negative for a hostile
	// count and the conversion would hide it from the mismatch error.
	want := blocksAlong(nx) * blocksAlong(ny) * blocksAlong(nz)
	if nBlocks64 != uint64(want) {
		return nil, fmt.Errorf("zfp: block count %d != %d", nBlocks64, want)
	}
	if len(buf) < 2*want {
		return nil, errors.New("zfp: truncated emax table")
	}
	emaxs := make([]int16, want)
	for i := range emaxs {
		//lint:ignore mrlint/uvarintguard emax is an int16 stored as its uint16 bit pattern; the conversion reinterprets, every value is in range
		emaxs[i] = int16(binary.LittleEndian.Uint16(buf[2*i:]))
	}
	buf = buf[2*want:]

	g := field.Reuse(dst, nx, ny, nz)
	var iblock [64]int64
	var block, zeroBlock [64]float64
	bi := 0
	var decodeErr error
	forEachBlock(nx, ny, nz, func(x0, y0, z0 int) {
		if decodeErr != nil {
			return
		}
		emax := emaxs[bi]
		bi++
		if emax == emaxEmpty {
			storeBlock(g, x0, y0, z0, &zeroBlock)
			return
		}
		scale := math.Ldexp(1, fixedPointBits-int(emax))
		drop := dropBits(tol, scale)
		for _, idx := range sequencyOrder {
			c, n := binary.Varint(buf)
			if n <= 0 {
				decodeErr = errors.New("zfp: truncated coefficients")
				return
			}
			buf = buf[n:]
			iblock[idx] = c << drop
		}
		inverseTransform(&iblock)
		for i, v := range iblock {
			block[i] = float64(v) / scale
		}
		storeBlock(g, x0, y0, z0, &block)
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	return g, nil
}

// goldenStreams returns the ZFP streams of the committed ZFP container
// golden, located through its index footer.
func goldenStreams(t *testing.T) map[string][]byte {
	t.Helper()
	name := filepath.Join("..", "core", "testdata", "golden-linear-zfp-v3.mrw")
	blob, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := index.Locate(blob)
	if !ok {
		t.Fatalf("%s has no index footer", name)
	}
	ix, err := index.Parse(blob[body:len(blob)-index.TrailerLen], int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string][]byte{}
	for si, s := range ix.Streams {
		streams[fmt.Sprintf("%s stream %d", name, si)] = blob[s.Offset : s.Offset+s.Len]
	}
	return streams
}

// headerLen returns the length of the header of a stream's inflated
// payload: magic, dimensions, tolerance and block count. The emax table and
// the coefficients follow it.
func headerLen(t *testing.T, payload []byte) int {
	t.Helper()
	r := wire.NewReader(payload)
	r.Bytes(len(magic))
	r.Dims()
	r.Float64()
	r.Uvarint(math.MaxUint64)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return len(payload) - r.Len()
}

// sameBits reports whether a and b have one shape and the same bits in
// every sample.
func sameBits(a, b *field.Field) bool {
	return a.SameShape(b) && slices.EqualFunc(a.Data, b.Data, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// TestHeaderParseMatchesReference holds Decompress to the hand-written
// parser on every golden stream whose inflated payload is cut at each
// header offset (and inside the emax table), or has one header bit
// flipped, and deflated again: both must accept and reject alike, and
// decode to the same bits.
func TestHeaderParseMatchesReference(t *testing.T) {
	streams := goldenStreams(t)
	if len(streams) < 2 {
		t.Fatalf("%d golden streams, want at least 2", len(streams))
	}
	for name, blob := range streams {
		in, err := flatepool.Inflate(blob)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Clone(in.Bytes())
		in.Release()
		check := func(what string, p []byte) {
			t.Helper()
			blob, err := flatepool.Deflate(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := Decompress(nil, blob)
			want, wantErr := handParsedDecompress(nil, blob)
			switch {
			case (gotErr == nil) != (wantErr == nil):
				t.Fatalf("%s %s: error %v, reference %v", name, what, gotErr, wantErr)
			case gotErr == nil && !sameBits(got, want):
				t.Fatalf("%s %s: decoded bits differ from the reference's", name, what)
			}
		}
		check("as committed", payload)
		h := headerLen(t, payload)
		for cut := 0; cut <= h+2; cut++ {
			check(fmt.Sprintf("cut at %d", cut), payload[:cut])
		}
		for bit := 0; bit < 8*h; bit++ {
			mut := bytes.Clone(payload)
			mut[bit/8] ^= 1 << (bit % 8)
			check(fmt.Sprintf("bit %d flipped", bit), mut)
		}
	}
}
