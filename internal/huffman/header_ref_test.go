package huffman

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

	"repro/internal/bitio"
	"repro/internal/flatepool"
	"repro/internal/wire"
)

// The reference: the header parser as it was before it moved onto
// wire.Reader, each read written out by hand. The table build and the
// bit-stream decode are shared; only the parsing of the counts and the
// dictionary is the reference's own.

func (s *scratch) refAppendDecode(dst []int32, buf []byte) ([]int32, error) {
	n, k, err := readHeader(&buf)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return dst, nil
	}
	if k == 0 {
		return nil, errors.New("huffman: zero symbols for nonzero data")
	}
	syms, lens, buf, err := s.refParseDict(buf, k)
	if err != nil {
		return nil, err
	}
	t, err := s.table(syms, lens, n)
	if err != nil {
		return nil, err
	}
	if n > len(buf)*8 {
		return nil, fmt.Errorf("huffman: %d-byte stream cannot hold %d symbols: %w", len(buf), n, bitio.ErrOutOfBits)
	}
	br := bitio.NewReader(buf)
	base := len(dst)
	out := slices.Grow(dst, n+maxBatch)[:base+n+maxBatch]
	if err := t.decodeAll(br, out[base:], n); err != nil {
		return nil, err
	}
	return out[:base+n], nil
}

func (s *scratch) refParseDict(buf []byte, k int) (syms []int32, lens []int, rest []byte, err error) {
	if k > len(buf)/2 {
		return nil, nil, nil, errors.New("huffman: truncated dictionary")
	}
	s.syms, s.lens = resize(s.syms, k), resize(s.lens, k)
	syms, lens = s.syms, s.lens
	prev := int64(0)
	for i := 0; i < k; i++ {
		delta, m := binary.Varint(buf)
		if m <= 0 {
			return nil, nil, nil, errors.New("huffman: truncated dictionary")
		}
		buf = buf[m:]
		prev += delta
		if prev > math.MaxInt32 || prev < math.MinInt32 {
			return nil, nil, nil, errors.New("huffman: symbol out of range")
		}
		syms[i] = int32(prev)
		if len(buf) == 0 {
			return nil, nil, nil, errors.New("huffman: truncated lengths")
		}
		lens[i] = int(buf[0])
		if lens[i] == 0 || lens[i] > maxCodeLen+1 {
			return nil, nil, nil, fmt.Errorf("huffman: invalid code length %d", lens[i])
		}
		buf = buf[1:]
	}
	for i := 1; i < k; i++ {
		if lens[i] < lens[i-1] {
			return nil, nil, nil, errors.New("huffman: dictionary not canonical")
		}
	}
	return syms, lens, buf, nil
}

// readHeader is the reference's header reader.
func readHeader(buf *[]byte) (n, k int, err error) {
	un, m := binary.Uvarint(*buf)
	if m <= 0 {
		return 0, 0, errors.New("huffman: truncated header")
	}
	*buf = (*buf)[m:]
	uk, m := binary.Uvarint(*buf)
	if m <= 0 {
		return 0, 0, errors.New("huffman: truncated header")
	}
	*buf = (*buf)[m:]
	if un > maxN || uk > un+1 {
		return 0, 0, fmt.Errorf("huffman: implausible header n=%d k=%d", un, uk)
	}
	return int(un), int(uk), nil
}

// goldenEntropyStreams returns the entropy-coded streams inside the sz2 and
// sz3 golden fixtures, keyed by fixture and role. The codec headers around
// them are skipped with a wire.Reader.
func goldenEntropyStreams(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	read := func(rel string, skip func(r *wire.Reader), roles ...string) {
		blob, err := os.ReadFile(filepath.Join("..", rel))
		if err != nil {
			t.Fatal(err)
		}
		in, err := flatepool.Inflate(blob)
		if err != nil {
			t.Fatal(err)
		}
		defer in.Release()
		r := wire.NewReader(in.Bytes())
		skip(&r)
		for _, role := range roles {
			out[rel+" "+role] = bytes.Clone(r.Chunk())
		}
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
	}
	sz2 := func(r *wire.Reader) {
		r.Bytes(4) // magic
		if r.Byte() == 0 {
			r.Uvarint(math.MaxUint64) // escaped block size
		}
		r.Dims()
		r.Float64()
		r.Chunk() // mode bitmap
	}
	sz3 := func(r *wire.Reader) {
		r.Bytes(5) // magic, interpolant
		r.Dims()
		for l, n := uint64(0), r.Uvarint(62); l <= n; l++ {
			r.Float64() // the eb table
		}
	}
	read(filepath.Join("sz2", "testdata", "golden.sz2"), sz2, "coefficients", "codes")
	for _, name := range []string{"golden-linear.sz3", "golden-cubic-adaptive.sz3"} {
		read(filepath.Join("sz3", "testdata", name), sz3, "codes")
	}
	return out
}

// entropyHeaderLen returns the length of an entropy stream's header: its
// counts and dictionary.
func entropyHeaderLen(stream []byte) int {
	r := wire.NewReader(stream)
	r.Uvarint(math.MaxUint64) // n
	for k := r.Uvarint(math.MaxUint64); k > 0 && r.Err() == nil; k-- {
		r.Varint()
		r.Byte()
	}
	return len(stream) - r.Len()
}

// TestHeaderParseMatchesReference holds Decode to the reference parser on
// every golden entropy stream cut at each header offset and with each bit
// of its header flipped: both must accept and reject alike, and decode to
// the same symbols.
func TestHeaderParseMatchesReference(t *testing.T) {
	s := new(scratch)
	check := func(name string, buf []byte) {
		t.Helper()
		got, gotErr := AppendDecode(nil, buf)
		want, wantErr := s.refAppendDecode(nil, buf)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
		case gotErr == nil && !slices.Equal(got, want):
			t.Fatalf("%s: %d symbols differ from the reference's %d", name, len(got), len(want))
		}
	}
	// Header values at the bounds the parsers check, which no single bit
	// flip of a golden reaches: the symbol range, the code length, the
	// symbol count and the dictionary size.
	// Zero bits decode as the first symbol of any dictionary below.
	payload := make([]byte, 8)
	// single writes a stream; dict holds delta, length pairs.
	single := func(n, k uint64, dict ...int64) []byte {
		b := binary.AppendUvarint(binary.AppendUvarint(nil, n), k)
		for i := 0; i < len(dict); i += 2 {
			b = append(binary.AppendVarint(b, dict[i]), byte(dict[i+1]))
		}
		return append(b, payload...)
	}
	for name, buf := range map[string][]byte{
		"symbol MaxInt32":      single(8, 2, math.MaxInt32, 1, -1, 1),
		"symbol past MaxInt32": single(8, 2, math.MaxInt32+1, 1, -1, 1),
		"symbol MinInt32":      single(8, 2, math.MinInt32, 1, 1, 1),
		"symbol past MinInt32": single(8, 2, math.MinInt32-1, 1, 1, 1),
		"longest code length":  single(1, 2, 0, 1, 1, maxCodeLen+1),
		"code length past it":  single(1, 2, 0, 1, 1, maxCodeLen+2),
		"k = n + 1":            single(1, 2, 0, 1, 1, 1),
		"k = n + 2":            single(1, 3, 0, 1, 1, 2, 1, 2),
		"n = maxN":             single(maxN, 2, 0, 1, 1, 1),
		"n = maxN + 1":         single(maxN+1, 2, 0, 1, 1, 1),
	} {
		check(name, buf)
	}

	streams := goldenEntropyStreams(t)
	if len(streams) != 4 {
		t.Fatalf("%d golden entropy streams, want 4", len(streams))
	}
	for name, stream := range streams {
		h := entropyHeaderLen(stream)
		check(name, stream)
		for cut := 0; cut <= h; cut++ {
			check(fmt.Sprintf("%s cut at %d", name, cut), stream[:cut])
		}
		for bit := 0; bit < 8*h; bit++ {
			mut := bytes.Clone(stream)
			mut[bit/8] ^= 1 << (bit % 8)
			check(fmt.Sprintf("%s bit %d flipped", name, bit), mut)
		}
	}
}
