package flatepool

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// RFC 1951 limits.
const (
	maxLit      = 286 // literal/length symbols a dynamic block may define
	maxDist     = 30  // distance symbols a dynamic block may define
	numCLen     = 19  // code-length code symbols
	maxCodeBits = 15  // longest Huffman code
	maxMatch    = 258 // longest match, and so the most one symbol writes

	// primaryBits is the width of a table's direct lookup. Codes up to this
	// long decode in one load; longer ones, which are the rarest symbols,
	// fall back to a canonical search over their lengths.
	primaryBits = 10
	primaryMask = 1<<primaryBits - 1
)

var (
	errCorrupt   = errors.New("flatepool: corrupt DEFLATE stream")
	errTruncated = fmt.Errorf("flatepool: truncated DEFLATE stream: %w", io.ErrUnexpectedEOF)
)

// An entry is one decoded code: its length in bits 0–3, its kind in bits
// 4–6, the number of extra bits that follow it in bits 8–12, and its value
// in bits 16–31 — the byte of a literal, the base of a length or distance,
// or the symbol of a code-length code. The zero entry is kindInvalid: a bit
// pattern that is no code of the table, or a symbol no stream may use.
const (
	kindInvalid = 0 << 4
	kindLiteral = 1 << 4
	kindBase    = 2 << 4 // a length or a distance; extra bits follow
	kindEnd     = 3 << 4 // end of block
	kindLong    = 4 << 4 // primary slot of codes longer than primaryBits
	kindMask    = 7 << 4
)

func entry(kind, extra, value uint32) uint32 { return value<<16 | extra<<8 | kind }

// Per-symbol entries without their code length, for the three alphabets.
var litEntries, distEntries, clenEntries = func() (lit [288]uint32, dist [32]uint32, clen [numCLen]uint32) {
	lenBase := [...]uint32{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra := [...]uint32{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	for s := range 256 {
		lit[s] = entry(kindLiteral, 0, uint32(s))
	}
	lit[256] = kindEnd
	for i := range lenBase {
		lit[257+i] = entry(kindBase, lenExtra[i], lenBase[i])
	}
	// Symbols 286 and 287 have fixed codes but no meaning: kindInvalid.
	for s := range maxDist {
		extra := max(uint32(s)/2, 1) - 1
		base := uint32(1)
		if s >= 4 {
			base = 1<<(extra+1) + 1 + uint32(s&1)<<extra
		} else {
			base += uint32(s)
		}
		dist[s] = entry(kindBase, extra, base)
	}
	for s := range numCLen {
		clen[s] = entry(kindLiteral, 0, uint32(s))
	}
	return
}()

// The fixed codes of RFC 1951 §3.2.6, built once.
var fixedLit, fixedDist = func() (lit, dist table) {
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	lit.init(lens[:], litEntries[:])
	for s := range 32 {
		lens[s] = 5
	}
	dist.init(lens[:32], distEntries[:])
	return
}()

// A table decodes one canonical Huffman code read LSB-first.
type table struct {
	primary [1 << primaryBits]uint32
	// Canonical decoding of the codes longer than primaryBits: first[l] is
	// the first code of length l, count[l] how many there are, and
	// sorted[offset[l]:] their entries in code order.
	first, count, offset [maxCodeBits + 1]uint16
	sorted               [288]uint32
}

// init rebuilds t in place from code lengths, accepting exactly the codes
// compress/flate accepts: complete ones, the empty one (which fails when
// used) and the single code of one bit (whose other bit pattern fails).
func (t *table) init(lengths []uint8, entries []uint32) bool {
	var count [maxCodeBits + 1]uint16
	maxLen := uint8(0)
	for _, n := range lengths {
		count[n]++
		maxLen = max(maxLen, n)
	}
	count[0] = 0
	clear(t.primary[:])
	t.count = count
	if maxLen == 0 {
		return true
	}
	code, sorted := 0, uint16(0)
	for l := 1; l <= int(maxLen); l++ {
		code <<= 1
		t.first[l], t.offset[l] = uint16(code), sorted
		code += int(count[l])
		sorted += count[l]
	}
	if code != 1<<maxLen && !(code == 1 && maxLen == 1) {
		return false
	}
	next := t.first // the next code of each length, in symbol order
	for s, n := range lengths {
		if n == 0 {
			continue
		}
		c := next[n]
		next[n]++
		e := entries[s] | uint32(n)
		t.sorted[t.offset[n]+c-t.first[n]] = e
		rev := int(bits.Reverse16(c) >> (16 - n))
		if n > primaryBits {
			t.primary[rev&primaryMask] = kindLong
			continue
		}
		for i := rev; i < len(t.primary); i += 1 << n {
			t.primary[i] = e
		}
	}
	return true
}

// decodeLong decodes a code longer than primaryBits from the next bits of
// the stream, or returns the zero entry if they hold none.
func (t *table) decodeLong(b uint64) uint32 {
	// The code's first bit is the stream's lowest: reverse to read it as
	// a number, most significant bit first.
	r := uint32(bits.Reverse16(uint16(b))) >> 1
	for l := primaryBits + 1; l <= maxCodeBits; l++ {
		if i := r>>(maxCodeBits-l) - uint32(t.first[l]); i < uint32(t.count[l]) {
			return t.sorted[uint32(t.offset[l])+i]
		}
	}
	return kindInvalid
}

// decoder inflates one whole stream held in memory. Its bit buffer b holds
// nb unconsumed bits, the lowest first; pos is the next input byte to load.
// Past the end of the input it loads zero bytes, so a lookup never
// branches on the input's end, and checks at every slow refill — and once
// more at the end — that no bit it consumed lay past the end.
type decoder struct {
	in  []byte
	pos int
	b   uint64
	nb  uint

	out []byte // out[:op] is the output so far; len(out) == cap(out)
	op  int

	lit, dist, clen table
	lens            [maxLit + maxDist]uint8
}

// inflate decodes the DEFLATE stream in into d.out, which it reuses and
// grows as needed. Bytes after the final block are ignored, as
// compress/flate ignores them.
func (d *decoder) inflate(in []byte) error {
	d.in, d.pos, d.b, d.nb = in, 0, 0, 0
	d.out, d.op = d.out[:cap(d.out)], 0
	defer func() { d.in = nil }() // do not pin the caller's stream
	for {
		if err := d.refill(); err != nil {
			return err
		}
		final := d.take(1)
		var err error
		switch d.take(2) {
		case 0:
			err = d.stored()
		case 1:
			err = d.block(&fixedLit, &fixedDist)
		case 2:
			if err = d.dynamic(); err == nil {
				err = d.block(&d.lit, &d.dist)
			}
		default:
			err = errCorrupt
		}
		if err != nil {
			return err
		}
		if final == 1 {
			return d.overrun()
		}
	}
}

// overrun reports whether a consumed bit lay past the end of the input.
func (d *decoder) overrun() error {
	if d.pos*8-int(d.nb) > len(d.in)*8 {
		return errTruncated
	}
	return nil
}

// refill tops the bit buffer up to at least 56 bits.
func (d *decoder) refill() error {
	if d.pos+8 <= len(d.in) {
		d.b |= binary.LittleEndian.Uint64(d.in[d.pos:]) << d.nb
		d.pos += int(63-d.nb) >> 3
		d.nb |= 56
		return nil
	}
	for ; d.nb < 56; d.nb += 8 {
		if d.pos < len(d.in) {
			d.b |= uint64(d.in[d.pos]) << d.nb
		}
		d.pos++
	}
	return d.overrun()
}

// take consumes n ≤ nb bits.
func (d *decoder) take(n uint) uint32 {
	v := uint32(d.b & (1<<n - 1))
	d.b >>= n
	d.nb -= n
	return v
}

// grow makes room for at least n more output bytes.
func (d *decoder) grow(n int) {
	if len(d.out)-d.op >= n {
		return
	}
	out := make([]byte, max(2*len(d.out), d.op+n, 2*len(d.in), 4096))
	copy(out, d.out[:d.op])
	d.out = out
}

// stored copies a stored block straight from the input. The block starts
// at the byte boundary after the header, so the look-ahead bytes in the
// bit buffer go back to the input and the buffer starts afresh after it.
func (d *decoder) stored() error {
	p := d.pos - int(d.nb/8)
	d.b, d.nb = 0, 0
	if p+4 > len(d.in) {
		return errTruncated
	}
	n := int(binary.LittleEndian.Uint16(d.in[p:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(d.in[p+2:]) {
		return errCorrupt
	}
	p += 4
	if p+n > len(d.in) {
		return errTruncated
	}
	d.grow(n)
	d.op += copy(d.out[d.op:], d.in[p:p+n])
	d.pos = p + n
	return nil
}

// codeOrder is the order of the code-length code's lengths (RFC 1951
// §3.2.7).
var codeOrder = [numCLen]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// dynamic reads a dynamic block's code definitions into d.lit and d.dist.
func (d *decoder) dynamic() error {
	if err := d.refill(); err != nil {
		return err
	}
	nlit := int(d.take(5)) + 257
	ndist := int(d.take(5)) + 1
	nclen := int(d.take(4)) + 4
	if nlit > maxLit || ndist > maxDist {
		return errCorrupt
	}
	var clens [numCLen]uint8
	for _, s := range codeOrder[:nclen] {
		if d.nb < 3 {
			if err := d.refill(); err != nil {
				return err
			}
		}
		clens[s] = uint8(d.take(3))
	}
	if !d.clen.init(clens[:], clenEntries[:]) {
		return errCorrupt
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		// A code-length code is at most 7 bits, and its extra bits 7.
		if err := d.refill(); err != nil {
			return err
		}
		e := d.clen.primary[d.b&primaryMask]
		if e&kindMask == kindInvalid {
			return errCorrupt
		}
		d.take(uint(e & 15))
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep int
		var v uint8
		switch sym {
		case 16:
			if i == 0 {
				return errCorrupt
			}
			rep, v = 3+int(d.take(2)), lens[i-1]
		case 17:
			rep = 3 + int(d.take(3))
		default:
			rep = 11 + int(d.take(7))
		}
		if i+rep > len(lens) {
			return errCorrupt
		}
		for range rep {
			lens[i] = v
			i++
		}
	}
	if !d.lit.init(lens[:nlit], litEntries[:]) || !d.dist.init(lens[nlit:], distEntries[:]) {
		return errCorrupt
	}
	return nil
}

// block decodes one Huffman-coded block's symbols through lt and dt. It is
// the hot loop, so the bit buffer and the output live in locals.
func (d *decoder) block(lt, dt *table) error {
	in, pos, b, nb := d.in, d.pos, d.b, d.nb
	out, op := d.out, d.op
	var err error
loop:
	for {
		// One refill covers the longest symbol: a 15-bit length code, 5
		// extra bits, a 15-bit distance code and 13 extra bits.
		if pos+8 <= len(in) {
			b |= binary.LittleEndian.Uint64(in[pos:]) << nb
			pos += int(63-nb) >> 3
			nb |= 56
		} else {
			d.pos, d.b, d.nb = pos, b, nb
			if err = d.refill(); err != nil {
				break loop
			}
			pos, b, nb = d.pos, d.b, d.nb
		}
		if len(out)-op < maxMatch {
			d.out, d.op = out, op
			d.grow(maxMatch)
			out = d.out
		}

		e := lt.primary[b&primaryMask]
		if e&kindMask == kindLiteral {
			// Literals are most symbols, and three codes of at most 15
			// bits fit in one refill: decode up to three without one.
			// A code that is not a primary-table literal is left for
			// the next round.
			out[op] = byte(e >> 16)
			op++
			n := uint(e & 15)
			b >>= n
			nb -= n
			if e = lt.primary[b&primaryMask]; e&kindMask == kindLiteral {
				out[op] = byte(e >> 16)
				op++
				n = uint(e & 15)
				b >>= n
				nb -= n
				if e = lt.primary[b&primaryMask]; e&kindMask == kindLiteral {
					out[op] = byte(e >> 16)
					op++
					n = uint(e & 15)
					b >>= n
					nb -= n
				}
			}
			continue
		}
		if e&kindMask == kindLong {
			e = lt.decodeLong(b)
		}
		n := uint(e & 15)
		b >>= n
		nb -= n
		switch e & kindMask {
		case kindLiteral:
			out[op] = byte(e >> 16)
			op++
			continue
		case kindBase:
		case kindEnd:
			d.pos, d.b, d.nb, d.out, d.op = pos, b, nb, out, op
			return nil
		default:
			err = errCorrupt
			break loop
		}
		x := uint(e>>8) & 31
		length := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= x

		e = dt.primary[b&primaryMask]
		if e&kindMask == kindLong {
			e = dt.decodeLong(b)
		}
		n = uint(e & 15)
		b >>= n
		nb -= n
		x = uint(e>>8) & 31
		dist := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= x
		if e&kindMask != kindBase || dist > op {
			err = errCorrupt
			break loop
		}

		// An overlapping match repeats its last dist bytes: each copy
		// doubles the span it can copy from.
		src, end := op-dist, op+length
		for op < end {
			op += copy(out[op:end], out[src:op])
		}
	}
	d.pos, d.b, d.nb, d.out, d.op = pos, b, nb, out, op
	return err
}
