// Package bitio provides the big-endian bit-level Reader that is the
// Huffman decoder's bit source. It gathers up to 64 bits with a single
// unaligned 8-byte load on the fast path, most significant bit first. The
// package's tests write the streams it reads with a Writer of their own
// (writer_test.go); the Huffman encoder emits its bits itself.
package bitio

import (
	"encoding/binary"
	"errors"
)

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
