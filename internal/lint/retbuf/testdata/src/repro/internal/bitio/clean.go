// Negative cases: documented aliasing, fresh allocations, caller-owned
// destinations, and unexported methods all pass.
package bitio

// Finish returns the encoded stream.
//
// aliases: the returned slice is the buffer's own array; the buffer must
// not be reused while the result is live.
func (w *Buffer) Finish() []byte {
	return w.buf
}

// Copy returns a fresh allocation.
func (w *Buffer) Copy() []byte {
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out
}

// AppendTo appends into a caller-provided destination; the result is rooted
// in dst, not the receiver.
func (w *Buffer) AppendTo(dst []byte) []byte {
	return append(dst, w.buf...)
}

// peek is unexported; the rule covers only the exported API surface.
func (w *Buffer) peek() []byte {
	return w.buf
}

// Fresh reassigns the local away from the buffer before returning it.
func (w *Buffer) Fresh() []byte {
	b := w.buf
	b = make([]byte, w.n)
	return b
}

// Count returns no slice at all.
func (w *Buffer) Count() int {
	return w.n
}
