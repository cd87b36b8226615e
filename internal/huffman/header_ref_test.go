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

// The reference: the header parsers of both wire formats as they were
// before they moved onto wire.Reader, each read written out by hand. The
// table build and the bit-stream decode are shared; only the parsing of
// the counts, the dictionary and the lane lengths is the reference's own.

func (s *scratch) refAppendDecode(dst []int32, buf []byte) ([]int32, error) {
	if tag, m := binary.Uvarint(buf); m > 0 && tag == InterleavedTag {
		return s.refAppendInterleaved(dst, buf[m:])
	}
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

// readHeader is the single-lane format's header reader. It also pins the
// format discriminator: it rejects an interleaved stream
// (TestLegacyDecoderRejectsInterleaved).
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

var refErrInterleavedHeader = errors.New("huffman: truncated interleaved header")

func (s *scratch) refAppendInterleaved(dst []int32, buf []byte) ([]int32, error) {
	un, m := binary.Uvarint(buf)
	if m <= 0 {
		return nil, refErrInterleavedHeader
	}
	buf = buf[m:]
	if un == 0 || un > maxN {
		return nil, fmt.Errorf("huffman: implausible interleaved n=%d", un)
	}
	ul, m := binary.Uvarint(buf)
	if m <= 0 {
		return nil, refErrInterleavedHeader
	}
	buf = buf[m:]
	if ul < 2 || ul > maxLanes || ul&(ul-1) != 0 || ul > un {
		return nil, fmt.Errorf("huffman: invalid lane count %d for n=%d", ul, un)
	}
	n, lanes := int(un), int(ul)
	uk, m := binary.Uvarint(buf)
	if m <= 0 {
		return nil, refErrInterleavedHeader
	}
	buf = buf[m:]
	if uk == 0 || uk > un {
		return nil, fmt.Errorf("huffman: implausible dictionary size %d for n=%d", uk, un)
	}
	syms, lens, buf, err := s.refParseDict(buf, int(uk))
	if err != nil {
		return nil, err
	}
	t, err := s.table(syms, lens, n)
	if err != nil {
		return nil, err
	}
	laneBits := make([]int, lanes)
	for j := range laneBits {
		ub, m := binary.Uvarint(buf)
		if m <= 0 {
			return nil, refErrInterleavedHeader
		}
		if ub > uint64(len(buf))*8 {
			return nil, fmt.Errorf("huffman: lane %d length %d bits exceeds payload", j, ub)
		}
		buf = buf[m:]
		laneBits[j] = int(ub)
	}
	laneSyms := func(j int) int { return (n - j + lanes - 1) / lanes }
	off := 0
	for j, lb := range laneBits {
		if rem := laneSyms(j); lb < rem {
			return nil, fmt.Errorf("huffman: lane %d: %d bits cannot hold %d symbols", j, lb, rem)
		}
		blen := (lb + 7) / 8
		if blen > len(buf)-off {
			return nil, fmt.Errorf("huffman: truncated lane %d payload: %w", j, bitio.ErrOutOfBits)
		}
		off += blen
	}
	base := len(dst)
	out := slices.Grow(dst, n)[:base+n]
	off = 0
	for j, lb := range laneBits {
		blen := (lb + 7) / 8
		br := bitio.NewReaderBits(buf[off:off+blen], lb)
		off += blen
		if err := t.decodeStride(br, out[base:], j, laneSyms(j), lanes); err != nil {
			return nil, err
		}
		if left := br.Remaining(); left != 0 {
			return nil, fmt.Errorf("huffman: lane %d consumed %d of %d bits", j, lb-left, lb)
		}
	}
	return out, nil
}

// goldenEntropyStreams returns the entropy-coded streams inside the sz2 and
// sz3 golden fixtures — single-lane and legacy interleaved — keyed by
// fixture and role. The codec headers around them are skipped with a
// wire.Reader.
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
	for _, name := range []string{"golden.sz2", "golden-lanes4.sz2"} {
		read(filepath.Join("sz2", "testdata", name), sz2, "coefficients", "codes")
	}
	for _, name := range []string{"golden-linear.sz3", "golden-cubic-adaptive.sz3", "golden-linear-lanes4.sz3"} {
		read(filepath.Join("sz3", "testdata", name), sz3, "codes")
	}
	return out
}

// entropyHeaderLen returns the length of an entropy stream's header: its
// counts and dictionary, and in the interleaved format its lane lengths.
func entropyHeaderLen(stream []byte) int {
	r := wire.NewReader(stream)
	lanes := uint64(0)
	if r.Uvarint(math.MaxUint64) == InterleavedTag {
		r.Uvarint(math.MaxUint64) // n
		lanes = r.Uvarint(maxLanes)
	}
	for k := r.Uvarint(math.MaxUint64); k > 0 && r.Err() == nil; k-- {
		r.Varint()
		r.Byte()
	}
	for ; lanes > 0; lanes-- {
		r.Uvarint(math.MaxUint64)
	}
	return len(stream) - r.Len()
}

// TestHeaderParseMatchesReference holds Decode to the reference parsers on
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
	// dictionary size, the lane count and the lane lengths.
	// Zero bits decode as the first symbol of any dictionary below.
	payload := make([]byte, 8)
	// single writes a single-lane stream; dict holds delta, length pairs.
	single := func(n, k uint64, dict ...int64) []byte {
		b := binary.AppendUvarint(binary.AppendUvarint(nil, n), k)
		for i := 0; i < len(dict); i += 2 {
			b = append(binary.AppendVarint(b, dict[i]), byte(dict[i+1]))
		}
		return append(b, payload...)
	}
	ones := func(n int) []uint64 {
		b := make([]uint64, n)
		for i := range b {
			b[i] = 1
		}
		return b
	}
	// lanes writes an interleaved stream over the symbols 0 and 1, one
	// bit each, with the given lane lengths in bits.
	lanes := func(n, lanes uint64, laneBits ...uint64) []byte {
		b := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, InterleavedTag), n), lanes)
		b = append(binary.AppendVarint(binary.AppendUvarint(b, 2), 0), 1)
		b = append(binary.AppendVarint(b, 1), 1)
		for _, lb := range laneBits {
			b = binary.AppendUvarint(b, lb)
		}
		return append(b, payload...)
	}
	for name, buf := range map[string][]byte{
		"symbol MaxInt32":        single(8, 2, math.MaxInt32, 1, -1, 1),
		"symbol past MaxInt32":   single(8, 2, math.MaxInt32+1, 1, -1, 1),
		"symbol MinInt32":        single(8, 2, math.MinInt32, 1, 1, 1),
		"symbol past MinInt32":   single(8, 2, math.MinInt32-1, 1, 1, 1),
		"longest code length":    single(1, 2, 0, 1, 1, maxCodeLen+1),
		"code length past it":    single(1, 2, 0, 1, 1, maxCodeLen+2),
		"k = n + 1":              single(1, 2, 0, 1, 1, 1),
		"k = n + 2":              single(1, 3, 0, 1, 1, 2, 1, 2),
		"n = maxN":               single(maxN, 2, 0, 1, 1, 1),
		"2 lanes":                lanes(8, 2, 4, 4),
		"3 lanes":                lanes(9, 3, 3, 3, 3),
		"6 lanes":                lanes(12, 6, 2, 2, 2, 2, 2, 2),
		"64 lanes":               lanes(64, 64, ones(64)...),
		"128 lanes":              lanes(128, 128, ones(128)...),
		"lane of all the bits":   lanes(2, 2, 64, 0),
		"lane past all the bits": lanes(2, 2, 65, 0),
	} {
		check(name, buf)
	}

	streams := goldenEntropyStreams(t)
	if len(streams) != 7 {
		t.Fatalf("%d golden entropy streams, want 7", len(streams))
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
