// Package sz2 is a fixture stub living at the hot-path import path
// repro/internal/sz2; this file holds the positive cases: exported functions
// returning slices rooted in a value taken from a sync.Pool.
package sz2

import (
	"encoding/binary"
	"sync"
)

type scratch struct {
	payload []byte
	codes   []int32
}

var pool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return pool.Get().(*scratch) }

// getAgain wraps the wrapper.
func getAgain() *scratch { return getScratch() }

// Payload fills the pooled payload and returns it after putting the scratch
// back: the next Get hands the same array to someone else.
func Payload(n int) []byte {
	s := getScratch()
	defer pool.Put(s)
	s.payload = append(s.payload[:0], make([]byte, n)...)
	return s.payload // want `Payload returns a slice aliasing a buffer taken from a sync.Pool; document the lifetime with an "aliases:" doc comment or return a copy`
}

// Direct takes the pooled value without the wrapper.
func Direct() []int32 {
	s := pool.Get().(*scratch)
	return s.codes[:0] // want `Direct returns a slice aliasing a buffer taken from a sync.Pool`
}

// Grown appends into pooled capacity.
func Grown(b []byte) []byte {
	s := getScratch()
	p := append(s.payload[:0], b...)
	pool.Put(s)
	return p // want `Grown returns a slice aliasing a buffer taken from a sync.Pool`
}

// Wrapped goes through a wrapper of the wrapper.
func Wrapped() []byte {
	return getAgain().payload // want `Wrapped returns a slice aliasing a buffer taken from a sync.Pool`
}

var bufs = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// Deref pools the slice itself, behind a pointer.
func Deref() []byte {
	bp := bufs.Get().(*[]byte)
	return *bp // want `Deref returns a slice aliasing a buffer taken from a sync.Pool`
}

type Coder struct{ s *scratch }

// Codes is a method: its return is rooted in a pooled value, not in the
// receiver.
func (c *Coder) Codes() []int32 {
	s := getScratch()
	return s.codes // want `Codes returns a slice aliasing a buffer taken from a sync.Pool`
}

// Framed builds on pooled capacity through AppendX-style helpers, which
// return their destination extended.
func Framed(b []byte) []byte {
	s := getScratch()
	p := binary.AppendUvarint(s.payload[:0], uint64(len(b)))
	p = appendFrame(p, b)
	s.payload = p
	pool.Put(s)
	return p // want `Framed returns a slice aliasing a buffer taken from a sync.Pool`
}

func appendFrame(p, b []byte) []byte { return append(p, b...) }
