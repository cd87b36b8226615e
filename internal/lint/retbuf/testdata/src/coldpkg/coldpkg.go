// Package coldpkg is not on the hot-path list: the same aliasing shapes
// that are flagged in repro/internal/bitio must produce zero findings here.
package coldpkg

import "sync"

type Buffer struct {
	data []byte
}

// Raw aliases the internal buffer, but coldpkg is not subject to the rule.
func (b *Buffer) Raw() []byte {
	return b.data
}

// RawTail likewise.
func (b *Buffer) RawTail(n int) []byte {
	return b.data[n:]
}

var pool = sync.Pool{New: func() any { return new(Buffer) }}

// Pooled returns pooled memory, but coldpkg is not subject to the rule.
func Pooled() []byte {
	return pool.Get().(*Buffer).data
}
