package sz3

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
	"repro/internal/huffman"
	"repro/internal/wire"
)

// handParsedDecompress is Decompress as it was before its header moved onto
// wire.Reader, every read and bound written out by hand: the reference
// TestHeaderParseMatchesReference holds Decompress to.
func handParsedDecompress(dst *field.Field, data []byte) (*field.Field, error) {
	inflated, err := flatepool.Inflate(data)
	if err != nil {
		return nil, fmt.Errorf("sz3: inflate: %w", err)
	}
	// Everything below copies what it keeps out of the pooled payload.
	defer inflated.Release()
	payload := inflated.Bytes()
	if len(payload) < 5 || string(payload[:4]) != magic {
		return nil, errors.New("sz3: bad magic")
	}
	interp := Interpolant(payload[4])
	buf := payload[5:]

	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, errors.New("sz3: truncated header")
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
	maxLevel64, err := readUvarint()
	if err != nil {
		return nil, err
	}
	nx, ny, nz, _, err := field.CheckDims(nx64, ny64, nz64)
	if err != nil || maxLevel64 == 0 || maxLevel64 > 62 {
		return nil, fmt.Errorf("sz3: invalid dims %dx%dx%d level %d", nx64, ny64, nz64, maxLevel64)
	}
	maxLevel := int(maxLevel64)
	if maxLevel != MaxLevelFor(nx, ny, nz) {
		return nil, errors.New("sz3: inconsistent level count")
	}
	ebTable := make([]float64, maxLevel+1)
	for i := range ebTable {
		if len(buf) < 8 {
			return nil, errors.New("sz3: truncated eb table")
		}
		ebTable[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		if !(ebTable[i] > 0) {
			return nil, errors.New("sz3: invalid eb in table")
		}
		buf = buf[8:]
	}
	hlen, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(buf)) < hlen {
		return nil, errors.New("sz3: truncated code stream")
	}
	codes, err := huffman.Decode(buf[:hlen])
	if err != nil {
		return nil, err
	}
	buf = buf[hlen:]
	nOut, err := readUvarint()
	if err != nil {
		return nil, err
	}
	// Divide instead of multiplying: nOut*8 can wrap uint64 for a hostile
	// count and slip a huge value past the length check into make.
	if nOut > uint64(len(buf))/8 {
		return nil, errors.New("sz3: truncated outliers")
	}
	outliers := make([]float64, nOut)
	for i := range outliers {
		outliers[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
	}
	if len(codes) != nx*ny*nz {
		return nil, fmt.Errorf("sz3: code count %d does not match %dx%dx%d", len(codes), nx, ny, nz)
	}
	return decodeCore(field.Reuse(dst, nx, ny, nz), interp, ebTable, maxLevel, codes, outliers)
}

// headerRanges returns the byte ranges of a stream's inflated payload that
// hold its header: magic through the code stream's length, and the outlier
// count.
func headerRanges(t *testing.T, payload []byte) [][2]int {
	t.Helper()
	r := wire.NewReader(payload)
	pos := func() int { return len(payload) - r.Len() }
	r.Bytes(len(magic) + 1) // magic, interpolant
	r.Dims()
	for l, n := uint64(0), r.Uvarint(62); l <= n; l++ {
		r.Float64() // the eb table
	}
	hlen := r.Uvarint(math.MaxInt32)
	ranges := [][2]int{{0, pos()}}
	r.Bytes(int(hlen))
	outStart := pos()
	r.Uvarint(math.MaxUint64)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return append(ranges, [2]int{outStart, pos()})
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
// header offset, or has one header bit flipped, and deflated again: both
// must accept and reject alike, and decode to the same bits.
func TestHeaderParseMatchesReference(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden-*.sz3"))
	if err != nil || len(goldens) != 2 {
		t.Fatalf("golden streams %v (%v), want 2", goldens, err)
	}
	for _, path := range goldens {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
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
				t.Fatalf("%s %s: error %v, reference %v", path, what, gotErr, wantErr)
			case gotErr == nil && !sameBits(got, want):
				t.Fatalf("%s %s: decoded bits differ from the reference's", path, what)
			}
		}
		check("as committed", payload)
		for _, rg := range headerRanges(t, payload) {
			for cut := rg[0]; cut <= rg[1]; cut++ {
				check(fmt.Sprintf("cut at %d", cut), payload[:cut])
			}
			for bit := 8 * rg[0]; bit < 8*rg[1]; bit++ {
				mut := bytes.Clone(payload)
				mut[bit/8] ^= 1 << (bit % 8)
				check(fmt.Sprintf("bit %d flipped", bit), mut)
			}
		}
	}
}
