// Package bitio provides big-endian bit-level writers and readers. The
// Reader is the Huffman decoder's bit source; the Writer writes the
// reference streams the Huffman encoder's own register emitter is tested
// against.
//
// Both sides batch through a 64-bit accumulator: WriteBits appends up to 64
// bits with a single shift/merge (plus at most one 8-byte store), and
// ReadBits/Peek gather up to 64 bits with a single unaligned 8-byte load on
// the fast path. The bit order (most significant bit first) and the byte
// stream produced are identical to the historical one-bit-at-a-time
// implementation.
package bitio

import (
	"encoding/binary"
	"errors"
)

// Writer accumulates bits into a byte buffer, most significant bit first.
type Writer struct {
	buf  []byte
	cur  uint64 // pending bits, right-aligned in the low n bits
	n    uint   // number of pending bits in cur (< 8 between calls)
	bits int    // total bits written
}

// NewWriter returns an empty bit writer.
func NewWriter() *Writer { return &Writer{} }

// NewWriterAppend returns a writer that appends to buf, so a header already
// serialized into buf and the bit stream share one allocation. The caller
// must not use buf again until after Bytes().
func NewWriterAppend(buf []byte) *Writer { return &Writer{buf: buf} }

// Grow preallocates capacity for at least `bits` more bits, so subsequent
// writes do not reallocate. Callers that know the stream size (e.g. Huffman,
// which knows Σ freq·len up front) should Grow once before emitting.
func (w *Writer) Grow(bits int) {
	if bits <= 0 {
		return
	}
	need := len(w.buf) + (bits+int(w.n)+7)/8
	if cap(w.buf) < need {
		nb := make([]byte, len(w.buf), need)
		copy(nb, w.buf)
		w.buf = nb
	}
}

// WriteBit appends one bit (0 or 1).
func (w *Writer) WriteBit(b uint) {
	w.cur = w.cur<<1 | uint64(b&1)
	w.n++
	w.bits++
	if w.n == 8 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur, w.n = 0, 0
	}
}

// WriteBits appends the low `n` bits of v, most significant first. n ≤ 64.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= 1<<n - 1
	}
	w.bits += int(n)
	if w.n+n > 64 {
		// The accumulator can't hold everything: top up to exactly 64
		// pending bits, store them as one big-endian word, and carry the
		// remainder (< 8 bits, since w.n < 8 between calls).
		top := 64 - w.n
		w.cur = w.cur<<top | v>>(n-top)
		var b8 [8]byte
		binary.BigEndian.PutUint64(b8[:], w.cur)
		w.buf = append(w.buf, b8[:]...)
		n -= top
		w.cur, w.n = 0, 0
		v &= 1<<n - 1
	}
	w.cur = w.cur<<n | v
	w.n += n
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.cur>>w.n))
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.bits }

// Bytes returns the stream with any partial byte zero-padded. The returned
// slice never aliases writer-owned spare capacity: when padding is needed the
// result is a fresh copy, so later writes cannot clobber it. The writer
// remains usable; subsequent writes continue from the partial bit position
// (not after the padding). Callers that are done writing should prefer
// Finish, which never copies.
//
// aliases: the no-padding fast path returns the writer's live buffer; it
// shares backing storage with the writer, though later appends never mutate
// the returned elements.
func (w *Writer) Bytes() []byte {
	if w.n == 0 {
		return w.buf
	}
	out := make([]byte, len(w.buf)+1)
	copy(out, w.buf)
	out[len(w.buf)] = byte(w.cur << (8 - w.n))
	return out
}

// Finish flushes any partial byte (zero-padded) into the writer's own buffer
// and returns it, consuming the writer: it must not be written to again.
// Unlike Bytes it never copies, so a caller that pre-Grew the writer gets the
// finished stream in place.
//
// aliases: the returned slice is the writer's own buffer; the writer must
// not be reused while the result is live.
func (w *Writer) Finish() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.n)))
		w.cur, w.n = 0, 0
	}
	return w.buf
}

// Reader consumes bits from a byte slice, most significant bit first. It
// maintains a left-aligned 64-bit lookahead register so the fast paths of
// Peek, Skip, ReadBit, and ReadBits are a couple of shifts and inline into
// callers' decode loops; the register refills from the byte slice in bulk.
type Reader struct {
	buf   []byte
	next  int    // index of the next byte to load into cache
	cache uint64 // unconsumed bits, left-aligned (bit 63 is the next bit)
	cnt   uint   // number of valid bits in cache
	nbits int    // len(buf) * 8
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf, nbits: len(buf) * 8} }

// NewReaderBits returns a reader over the first nbits bits of buf, for
// sub-streams whose payload does not fill the final byte (e.g. one lane of an
// interleaved entropy stream, sliced out of a shared buffer by byte range but
// bounded by its exact bit length). Reads past nbits fail with ErrOutOfBits
// exactly as they would at a buffer boundary, so a truncated or over-consumed
// lane is detected at bit granularity rather than rounded up to a byte. A
// nbits outside [0, len(buf)*8] is clamped to the buffer's own size.
func NewReaderBits(buf []byte, nbits int) *Reader {
	if max := len(buf) * 8; nbits < 0 || nbits > max {
		nbits = max
	}
	return &Reader{buf: buf, nbits: nbits}
}

// ErrOutOfBits is returned when a read goes past the end of the buffer.
var ErrOutOfBits = errors.New("bitio: out of bits")

// refill tops the cache up to at least 57 bits (or to the end of the buffer).
func (r *Reader) refill() {
	if r.next+8 <= len(r.buf) {
		// Bulk path: one 8-byte big-endian load, inserting as many whole
		// bytes as fit below the cached bits (the cache's low 64-cnt bits
		// are always zero, so OR-merging is safe).
		k := (64 - r.cnt) >> 3
		v := binary.BigEndian.Uint64(r.buf[r.next:])
		r.cache |= v >> (64 - k*8) << (64 - r.cnt - k*8)
		r.cnt += k * 8
		r.next += int(k)
		return
	}
	for r.cnt <= 56 && r.next < len(r.buf) {
		r.cache |= uint64(r.buf[r.next]) << (56 - r.cnt)
		r.cnt += 8
		r.next++
	}
}

// ReadBit returns the next bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.cnt == 0 {
		r.refill()
		if r.cnt == 0 {
			return 0, ErrOutOfBits
		}
	}
	b := uint(r.cache >> 63)
	r.cache <<= 1
	r.cnt--
	return b, nil
}

// ReadBits returns the next n bits (n ≤ 64) as the low bits of a uint64. On
// error the position is unchanged (no partial consumption).
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	if n <= r.cnt {
		v := r.cache >> (64 - n)
		r.cache <<= n // n == 64 shifts to 0, which is exactly right
		r.cnt -= n
		return v, nil
	}
	return r.readBitsSlow(n)
}

func (r *Reader) readBitsSlow(n uint) (uint64, error) {
	if r.Pos()+int(n) > r.nbits {
		return 0, ErrOutOfBits
	}
	v := r.peekSlow(n)
	if err := r.Skip(n); err != nil {
		return 0, err
	}
	return v, nil
}

// Peek returns the next n bits (n ≤ 64) without advancing, zero-padded when
// fewer than n bits remain. Combine with Skip for table-driven decoding.
func (r *Reader) Peek(n uint) uint64 {
	if n == 0 {
		return 0
	}
	if n <= r.cnt {
		return r.cache >> (64 - n)
	}
	return r.peekSlow(n)
}

func (r *Reader) peekSlow(n uint) uint64 {
	r.refill()
	if n <= r.cnt {
		return r.cache >> (64 - n)
	}
	// Fewer than n bits cached: either the buffer is exhausted (the cache's
	// low bits are zero, so the shift below zero-pads), or n > cnt ≥ 57 and
	// up to 7 more bits live in the next byte.
	v := r.cache >> (64 - n)
	if r.next < len(r.buf) {
		rest := n - r.cnt // ≤ 7 when bytes remain, since refill tops to ≥ 57
		v |= uint64(r.buf[r.next]) >> (8 - rest)
	}
	return v
}

// Skip advances the position by n bits, erroring (without moving) if fewer
// than n bits remain.
func (r *Reader) Skip(n uint) error {
	if n <= r.cnt {
		r.cache <<= n
		r.cnt -= n
		return nil
	}
	return r.skipSlow(n)
}

func (r *Reader) skipSlow(n uint) error {
	if r.Pos()+int(n) > r.nbits {
		return ErrOutOfBits
	}
	n -= r.cnt
	r.cache, r.cnt = 0, 0
	r.next += int(n >> 3)
	if rem := n & 7; rem > 0 {
		r.refill() // the bounds check above guarantees ≥ rem bits here
		r.cache <<= rem
		r.cnt -= rem
	}
	return nil
}

// Pos returns the current bit position.
func (r *Reader) Pos() int { return r.next*8 - int(r.cnt) }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbits - r.Pos() }
