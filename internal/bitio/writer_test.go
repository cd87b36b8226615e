package bitio

import "encoding/binary"

// The Writer is the Reader tests' stream builder: it appends bits most
// significant first through a 64-bit accumulator — WriteBits appends up to 64
// bits with a single shift/merge, plus at most one 8-byte store — and writes
// the same bytes as the historical one-bit-at-a-time writer
// (TestBatchedMatchesBitAtATime).

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
