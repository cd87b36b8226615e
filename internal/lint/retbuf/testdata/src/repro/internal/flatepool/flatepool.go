// Package flatepool is a fixture stub living at the hot-path import path
// repro/internal/flatepool: a pooled decoder whose output outlives the call
// that made it only until Release.
package flatepool

import "sync"

type decoder struct{ out []byte }

type Inflated struct{ d decoder }

var pool = sync.Pool{New: func() any { return new(Inflated) }}

// Bytes returns the pooled output with no aliasing contract.
func (p *Inflated) Bytes() []byte {
	return p.d.out // want `Bytes returns a slice aliasing an internal buffer`
}

// Payload is the same buffer under a contract.
//
// aliases: valid until Release.
func (p *Inflated) Payload() []byte { return p.d.out }

func (p *Inflated) Release() { pool.Put(p) }
