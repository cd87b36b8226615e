// Package bitio is a fixture stub living at the hot-path import path
// repro/internal/bitio; this file holds the positive cases.
package bitio

type Buffer struct {
	buf []byte
	n   int
}

// Bytes returns the live buffer with no aliasing contract.
func (w *Buffer) Bytes() []byte {
	return w.buf // want `Bytes returns a slice aliasing an internal buffer; document the lifetime with an "aliases:" doc comment or return a copy`
}

// Tail returns a reslice of the internal buffer.
func (w *Buffer) Tail() []byte {
	return w.buf[w.n:] // want `Tail returns a slice aliasing an internal buffer`
}

// Local launders the buffer through a local alias.
func (w *Buffer) Local() []byte {
	b := w.buf
	return b // want `Local returns a slice aliasing an internal buffer`
}

// Grown returns an append rooted in the internal buffer, which reuses the
// backing array whenever capacity suffices.
func (w *Buffer) Grown(pad []byte) []byte {
	return append(w.buf, pad...) // want `Grown returns a slice aliasing an internal buffer`
}
