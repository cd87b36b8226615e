// Package flatepool holds the DEFLATE wrapper stage shared by the sz2, sz3
// and zfp stand-ins and the lossless flate codec: a pooled compress/flate
// writer that writes every stream, and the RFC 1951 decoder that reads
// every stream.
//
// Writing: a flate.Writer carries tens of kilobytes of matcher state, and
// the container pipeline codes one stream per level or box, so Deflate
// reuses writers from a sync.Pool across streams and across the worker
// pool's goroutines. flate.Writer.Reset is documented to make the writer
// equivalent to a fresh one, so pooled output is byte-identical to
// unpooled.
//
// Reading: Inflate decodes a whole stream held in memory with this
// package's own decoder, not compress/flate's reader, which allocates new
// Huffman link tables for every dynamic block. The decoder keeps a 64-bit
// bit buffer refilled eight bytes at a time, decodes each code through a
// 10-bit primary table with a canonical search for longer codes, rebuilds
// its tables in place for every block and appends to a pooled buffer, so a
// steady-state Inflate allocates nothing. It accepts exactly the streams
// compress/flate accepts and returns the same bytes (FuzzInflate checks
// this); only the error texts differ. internal/bitio cannot serve here: it
// reads bits most significant first, and DEFLATE packs them least
// significant first.
//
// Pool cap: a released Inflated keeps its output buffer only up to
// maxPooledBytes (4 MiB), above every SZ2/SZ3 payload of a 128³ field, so a
// 16.8 MB lossless level never stays resident in the pool.
package flatepool

import (
	"bytes"
	"compress/flate"
	"sync"
)

var pool = sync.Pool{New: func() any {
	w, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		// flate.BestSpeed is a valid level; NewWriter cannot fail on it.
		panic(err)
	}
	return w
}}

// Deflate compresses payload at flate.BestSpeed using a pooled writer.
func Deflate(payload []byte) ([]byte, error) {
	var out bytes.Buffer
	out.Grow(len(payload)/4 + 64)
	fw := pool.Get().(*flate.Writer)
	fw.Reset(&out)
	if _, err := fw.Write(payload); err != nil {
		pool.Put(fw)
		return nil, err
	}
	if err := fw.Close(); err != nil {
		pool.Put(fw)
		return nil, err
	}
	pool.Put(fw)
	return out.Bytes(), nil
}

// maxPooledBytes caps the output buffer a released Inflated keeps. The
// largest SZ2 or SZ3 payload of a 128³ field is 1.16 MB (relative bound
// 1e-4); a lossless 128³ level is 16.8 MB.
const maxPooledBytes = 4 << 20

// Inflated is one stream's inflated payload, held in pooled memory together
// with the decoder that produced it.
type Inflated struct {
	d decoder
}

var inflated = sync.Pool{New: func() any { return new(Inflated) }}

// Inflate decompresses a whole DEFLATE stream into a pooled buffer. The
// caller parses or copies what it needs out of Bytes and then calls Release.
func Inflate(data []byte) (*Inflated, error) {
	p := inflated.Get().(*Inflated)
	if err := p.d.inflate(data); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// Bytes returns the inflated payload.
// aliases: valid until Release.
func (p *Inflated) Bytes() []byte { return p.d.out[:p.d.op] }

// Release returns the decoder and its buffer to the pool, dropping a
// buffer larger than maxPooledBytes. Neither p nor a slice obtained from
// Bytes may be used afterwards.
func (p *Inflated) Release() {
	if cap(p.d.out) > maxPooledBytes {
		p.d.out = nil
	}
	inflated.Put(p)
}
