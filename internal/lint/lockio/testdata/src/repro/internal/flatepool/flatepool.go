// Package flatepool is a fixture stub living at the decoder's import path
// repro/internal/flatepool.
package flatepool

type Inflated struct{ buf []byte }

func Inflate(data []byte) (*Inflated, error) { return &Inflated{buf: data}, nil }

func (p *Inflated) Bytes() []byte { return p.buf }

func (p *Inflated) Release() {}
