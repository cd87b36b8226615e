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
// Deflate appends: Deflate(dst, payload) writes the stream after dst's
// contents and returns the extended slice, which shares dst's array when it
// has the room — first growing dst to hold len(payload) plus a little
// framing if it has less spare room than that, since an entropy-coded
// payload barely shrinks. The pool never keeps a caller's buffer, so a
// caller that recycles its buffers (the container writer hands each written
// stream's buffer to the next stream) allocates an output buffer only when
// it has none large enough; Deflate(nil, payload) allocates one, of about
// the payload's size.
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
	"compress/flate"
	"slices"
	"sync"
)

// deflater is a pooled writer together with the sink it writes into, so
// neither is allocated per stream.
type deflater struct {
	fw  *flate.Writer
	out appender
}

// appender is an io.Writer that appends to a byte slice.
type appender struct{ b []byte }

func (a *appender) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

var pool = sync.Pool{New: func() any {
	d := new(deflater)
	fw, err := flate.NewWriter(&d.out, flate.BestSpeed)
	if err != nil {
		// flate.BestSpeed is a valid level; NewWriter cannot fail on it.
		panic(err)
	}
	d.fw = fw
	return d
}}

// Deflate compresses payload at flate.BestSpeed using a pooled writer and
// appends the stream to dst, returning the extended slice (see the package
// doc for how dst is grown).
//
// aliases: the result shares dst's array when dst had the room; the pooled
// writer keeps no reference to it.
func Deflate(dst, payload []byte) ([]byte, error) {
	d := pool.Get().(*deflater)
	d.out.b = slices.Grow(dst, len(payload)+deflateSlack)
	d.fw.Reset(&d.out)
	_, err := d.fw.Write(payload)
	if err == nil {
		err = d.fw.Close()
	}
	out := d.out.b
	d.out.b = nil // the pool keeps no caller's buffer
	pool.Put(d)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// deflateSlack is the room Deflate reserves beyond the payload for DEFLATE's
// block framing: it covers the 5-byte headers of the stored blocks an
// incompressible payload of up to about 700 KB falls back to.
const deflateSlack = 64

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
