// Package flatepool wraps the DEFLATE wrapper stage shared by the sz2, sz3,
// and zfp stand-ins behind sync.Pools of flate writers and readers. A
// flate.Writer carries tens of kilobytes of matcher state and a reader its
// 32 KiB window; the container pipeline codes one stream per level/box, so
// reusing both across streams (and across the worker pool's goroutines)
// removes the dominant per-stream allocation. flate.Writer.Reset and
// flate.Resetter are documented to make the object equivalent to a fresh
// one, so pooled output is byte-identical to unpooled.
package flatepool

import (
	"bytes"
	"compress/flate"
	"io"
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

// Inflated is one stream's inflated payload, held in pooled memory.
type Inflated struct {
	src bytes.Reader
	fr  io.ReadCloser // a flate reader; also a flate.Resetter
	buf bytes.Buffer
}

var inflated = sync.Pool{New: func() any {
	return &Inflated{fr: flate.NewReader(nil)}
}}

// Inflate decompresses a whole DEFLATE stream with a pooled reader into a
// pooled buffer. The caller parses or copies what it needs out of Bytes and
// then calls Release.
func Inflate(data []byte) (*Inflated, error) {
	p := inflated.Get().(*Inflated)
	p.src.Reset(data)
	// Reset cannot fail: the reader reads from memory and takes no dictionary.
	_ = p.fr.(flate.Resetter).Reset(&p.src, nil)
	p.buf.Reset()
	if _, err := p.buf.ReadFrom(p.fr); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// Bytes returns the inflated payload.
// aliases: valid until Release.
func (p *Inflated) Bytes() []byte { return p.buf.Bytes() }

// Release returns the reader and the buffer to the pool. Neither p nor a
// slice obtained from Bytes may be used afterwards.
func (p *Inflated) Release() {
	p.src.Reset(nil) // do not pin the caller's stream while pooled
	inflated.Put(p)
}
