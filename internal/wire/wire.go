// Package wire reads records from bytes the program must not trust: the
// codec stream headers (sz2, sz3, zfp), the Huffman headers inside them, the
// container index footer and the container body. It is the one place that
// enforces the rule all of that parsing shares: a value is read whole or
// not at all, and an integer is bounded before anything is sized from it.
//
// A Reader is a cursor that keeps the first error it hits. After that every
// read returns the zero value and consumes nothing, so a parser reads a
// whole record and checks Err once, before it acts on what it read:
//
//	r := wire.NewReader(payload)
//	nx, ny, nz := r.Dims()
//	levels := r.Uvarint(62)
//	codes := r.Chunk()
//	if err := r.Err(); err != nil {
//		return fmt.Errorf("sz3: header: %w", err)
//	}
//
// A Reader is a value: declared in the parser, it stays on the stack and
// reading allocates nothing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/field"
)

var (
	// ErrShort reports a read past the end of the input.
	ErrShort = errors.New("wire: truncated")
	// ErrRange reports an integer above its bound, or a varint that does
	// not fit in 64 bits.
	ErrRange = errors.New("wire: value out of range")
)

// Reader is a cursor over untrusted bytes. The zero value reads nothing.
// Its error, once set, wraps ErrShort or ErrRange.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Err returns the first error a read hit, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) }

// Rest returns the unread bytes.
//
// aliases: the result is a subslice of the input; nothing is copied.
func (r *Reader) Rest() []byte { return r.buf }

// fail records err unless an earlier error is kept, and ends the input.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// Uvarint reads an unsigned varint no larger than max.
func (r *Reader) Uvarint(max uint64) uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || v > max {
		r.fail(varintErr(n))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a signed varint. The caller bounds the value.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail(varintErr(n))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// varintErr is the error of a varint read that binary.Uvarint or Varint
// answered with n: none or part of one (0), wider than 64 bits (< 0), or
// read whole but above its bound.
func varintErr(n int) error {
	if n == 0 {
		return ErrShort
	}
	return ErrRange
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) < 1 {
		r.fail(ErrShort)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Bytes reads n bytes; it returns nil if fewer are left (or n < 0).
//
// aliases: the result is a subslice of the input; nothing is copied.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > len(r.buf) {
		r.fail(ErrShort)
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Chunk reads a uvarint length, then that many bytes. A length above the
// bytes left is ErrRange.
//
// aliases: the result is a subslice of the input; nothing is copied.
func (r *Reader) Chunk() []byte {
	// The bound is the bytes left, so the length fits an int.
	return r.Bytes(int(r.Uvarint(uint64(len(r.buf)))))
}

// Uint32 reads a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.Bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Float64 reads a little-endian IEEE 754 float64.
func (r *Reader) Float64() float64 {
	b := r.Bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Dims reads three uvarint field dimensions and checks them with
// field.CheckDims: each at least 1, their product at most
// field.MaxSamples.
func (r *Reader) Dims() (nx, ny, nz int) {
	nx, ny, nz, _, err := field.CheckDims(r.Uvarint(math.MaxUint64), r.Uvarint(math.MaxUint64), r.Uvarint(math.MaxUint64))
	if err != nil {
		r.fail(fmt.Errorf("%w: %v", ErrRange, err))
	}
	return nx, ny, nz
}
