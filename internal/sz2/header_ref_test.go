package sz2

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
	"repro/internal/quant"
	"repro/internal/wire"
)

// handParsedDecompress is Decompress as it was before its header moved onto
// wire.Reader, every read and bound written out by hand: the reference
// TestHeaderParseMatchesReference holds Decompress to. (refDecompress is
// older: the per-sample decoder the row kernels replaced.)
func handParsedDecompress(dst *field.Field, data []byte) (*field.Field, error) {
	inflated, err := flatepool.Inflate(data)
	if err != nil {
		return nil, fmt.Errorf("sz2: inflate: %w", err)
	}
	// Everything below copies what it keeps out of the pooled payload.
	defer inflated.Release()
	payload := inflated.Bytes()
	if len(payload) < 5 || string(payload[:4]) != magic {
		return nil, errors.New("sz2: bad magic")
	}
	buf := payload[4:]
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, errors.New("sz2: truncated header")
		}
		buf = buf[n:]
		return v, nil
	}
	bs := int(buf[0])
	buf = buf[1:]
	if bs == 0 { // escape: block size > 255 follows as a uvarint
		bs64, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if bs64 <= 0xFF || bs64 > math.MaxInt32 { // reject wrap-around and non-canonical escapes
			return nil, errors.New("sz2: invalid header")
		}
		bs = int(bs64)
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
	if err != nil || bs < 2 {
		return nil, errors.New("sz2: invalid header")
	}
	if len(buf) < 8 {
		return nil, errors.New("sz2: truncated eb")
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(buf))
	buf = buf[8:]
	if !(eb > 0) {
		return nil, errors.New("sz2: invalid eb")
	}

	readChunk := func() ([]byte, error) {
		l, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(buf)) < l {
			return nil, errors.New("sz2: truncated chunk")
		}
		c := buf[:l]
		buf = buf[l:]
		return c, nil
	}
	modes, err := readChunk()
	if err != nil {
		return nil, err
	}
	coefChunk, err := readChunk()
	if err != nil {
		return nil, err
	}
	codeChunk, err := readChunk()
	if err != nil {
		return nil, err
	}
	outChunk, err := readChunk()
	if err != nil {
		return nil, err
	}

	// The bitmap holds exactly one bit per block: a short one would read its
	// missing blocks as Lorenzo, a long one carries bits no block owns.
	nBlocks := blocksAlong(nx, bs) * blocksAlong(ny, bs) * blocksAlong(nz, bs)
	if len(modes) != (nBlocks+7)/8 {
		return nil, fmt.Errorf("sz2: %d-byte mode bitmap for %d blocks", len(modes), nBlocks)
	}
	s := getScratch()
	defer putScratch(s)
	// Codes before coefficients, as Compress coded them.
	codes, err := huffman.AppendDecode(s.codes[:0], codeChunk)
	if err != nil {
		return nil, err
	}
	s.codes = codes
	if len(codes) != nx*ny*nz {
		return nil, fmt.Errorf("sz2: code count %d != %d", len(codes), nx*ny*nz)
	}
	coefCodes, err := huffman.AppendDecode(s.coefCodes[:0], coefChunk)
	if err != nil {
		return nil, err
	}
	s.coefCodes = coefCodes
	if len(outChunk)%8 != 0 {
		return nil, errors.New("sz2: ragged outlier chunk")
	}

	g := field.Reuse(dst, nx, ny, nz)
	w := s.newSweep(nx, ny, bs, eb)
	w.recon, w.codes, w.outChunk = g.Data, codes, outChunk
	coefStep := eb / (2 * float64(bs))

	cpos, b := 0, 0
	for z0 := 0; z0 < nz; z0 += bs {
		bz := min(bs, nz-z0)
		for y0 := 0; y0 < ny; y0 += bs {
			by := min(bs, ny-y0)
			for x0 := 0; x0 < nx; x0 += bs {
				bx := min(bs, nx-x0)
				if modes[b>>3]&(0x80>>(b&7)) != 0 {
					if cpos+4 > len(coefCodes) {
						return nil, errors.New("sz2: coefficient stream underrun")
					}
					qc := [4]int32(coefCodes[cpos : cpos+4])
					cpos += 4
					w.regressBlock(x0, y0, z0, bx, by, bz, dequantizeCoefs(qc, coefStep))
				} else {
					w.lorenzoBlock(x0, y0, z0, bx, by, bz)
				}
				b++
			}
		}
	}
	if cpos != len(coefCodes) {
		return nil, fmt.Errorf("sz2: %d trailing coefficient codes", len(coefCodes)-cpos)
	}
	if err := quant.OutlierErr(w.underrun, len(outChunk)/8-w.outPos); err != nil {
		return nil, fmt.Errorf("sz2: %w", err)
	}
	return g, nil
}

// headerRanges returns the byte ranges of a stream's inflated payload that
// hold its header: magic through the error bound, and the length of each
// of the four chunks.
func headerRanges(t *testing.T, payload []byte) [][2]int {
	t.Helper()
	r := wire.NewReader(payload)
	pos := func() int { return len(payload) - r.Len() }
	r.Bytes(len(magic))
	if r.Byte() == 0 {
		r.Uvarint(math.MaxUint64) // escaped block size
	}
	r.Dims()
	r.Float64()
	ranges := [][2]int{{0, pos()}}
	for range 4 {
		start := pos()
		n := r.Uvarint(math.MaxInt32)
		ranges = append(ranges, [2]int{start, pos()})
		r.Bytes(int(n))
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return ranges
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
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden*.sz2"))
	if err != nil || len(goldens) != 1 {
		t.Fatalf("golden streams %v (%v), want 1", goldens, err)
	}
	streams := map[string][]byte{}
	for _, path := range goldens {
		if streams[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	// The goldens use 6³ blocks; a block size above 255 takes the escape.
	f, eb := goldenField()
	if streams["block size 300"], err = Compress(nil, f, Options{EB: eb, BlockSize: 300}); err != nil {
		t.Fatal(err)
	}
	for path, blob := range streams {
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
