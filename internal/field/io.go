package field

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// ErrTooLarge reports a field whose header-implied size exceeds the limit
// given to ReadFromLimit (distinguishable from malformed data, e.g. for an
// HTTP 413).
var ErrTooLarge = errors.New("field too large")

// Binary container for raw fields: a 24-byte header (three little-endian
// int64 dimensions) followed by Nx*Ny*Nz little-endian float64 samples.
// cmd/mrcompress and the examples use this as the on-disk "simulation output"
// format.

const headerSize = 24

// MaxSamples caps the total sample count any decoder will accept from an
// untrusted header: 2^33 float64 samples is 64 GiB, far beyond any dataset
// this pipeline targets.
const MaxSamples = 1 << 33

// CheckDims validates wire-decoded field dimensions while they are still in
// their raw uint64 form and converts them only after the bounds hold. It is
// the single place where untrusted nx/ny/nz become ints: every decoder
// (field containers, sz2/sz3/zfp headers, core containers) funnels
// through it, so a hostile header can neither wrap the nx*ny*nz product
// past an int64 nor drive a huge allocation. The product is checked one
// factor at a time because a naive multiply can wrap int64 and slip a
// negative (or tiny) total past the cap. Returns the dimensions
// as ints plus the validated total sample count.
func CheckDims(nx64, ny64, nz64 uint64) (nx, ny, nz int, samples int64, err error) {
	badDims := func() error {
		return fmt.Errorf("field: invalid dimensions %dx%dx%d", nx64, ny64, nz64)
	}
	if nx64 == 0 || nx64 > MaxSamples {
		return 0, 0, 0, 0, badDims()
	}
	if ny64 == 0 || ny64 > MaxSamples {
		return 0, 0, 0, 0, badDims()
	}
	if nz64 == 0 || nz64 > MaxSamples {
		return 0, 0, 0, 0, badDims()
	}
	n := int64(nx64)
	if int64(ny64) > MaxSamples/n {
		return 0, 0, 0, 0, badDims()
	}
	n *= int64(ny64)
	if int64(nz64) > MaxSamples/n {
		return 0, 0, 0, 0, badDims()
	}
	n *= int64(nz64)
	return int(nx64), int(ny64), int(nz64), n, nil
}

// chunkSize is the pooled scratch samples pass through in both directions.
const chunkSize = 64 << 10

var chunks = sync.Pool{New: func() any { return new([chunkSize]byte) }}

// WriteTo serializes the field to w in the raw binary format, one w.Write
// per 64 KiB. On error it returns the bytes w accepted.
func (f *Field) WriteTo(w io.Writer) (int64, error) {
	buf := chunks.Get().(*[chunkSize]byte)
	defer chunks.Put(buf)
	binary.LittleEndian.PutUint64(buf[0:], uint64(f.Nx))
	binary.LittleEndian.PutUint64(buf[8:], uint64(f.Ny))
	binary.LittleEndian.PutUint64(buf[16:], uint64(f.Nz))
	var written int64
	for n, data := headerSize, f.Data; ; n = 0 {
		src := data[:min((chunkSize-n)/8, len(data))]
		for i, v := range src {
			binary.LittleEndian.PutUint64(buf[n+8*i:], math.Float64bits(v))
		}
		data = data[len(src):]
		m, err := w.Write(buf[:n+8*len(src)])
		written += int64(m)
		if err != nil || len(data) == 0 {
			return written, err
		}
	}
}

// ReadFrom deserializes a field written by WriteTo.
func ReadFrom(r io.Reader) (*Field, error) {
	return ReadFromLimit(r, 0)
}

// ReadFromLimit is ReadFrom with a cap on the serialized size: a header
// whose dimensions imply more than maxBytes on the wire is rejected
// *before* the field is allocated, so an untrusted header cannot drive a
// huge allocation from a tiny payload. maxBytes <= 0 applies only the
// package sanity cap. It reads no byte past the field, and a body that ends
// early fails with an io.ErrUnexpectedEOF naming the first missing sample.
func ReadFromLimit(r io.Reader, maxBytes int64) (*Field, error) {
	buf := chunks.Get().(*[chunkSize]byte)
	defer chunks.Put(buf)
	if _, err := io.ReadFull(r, buf[:headerSize]); err != nil {
		return nil, fmt.Errorf("field: reading header: %w", err)
	}
	nx, ny, nz, n, err := CheckDims(
		binary.LittleEndian.Uint64(buf[0:]),
		binary.LittleEndian.Uint64(buf[8:]),
		binary.LittleEndian.Uint64(buf[16:]),
	)
	if err != nil {
		return nil, err
	}
	if maxBytes > 0 && headerSize+8*n > maxBytes {
		return nil, fmt.Errorf("field: %dx%dx%d needs %d bytes, over the %d-byte limit: %w",
			nx, ny, nz, headerSize+8*n, maxBytes, ErrTooLarge)
	}
	f := New(nx, ny, nz)
	for done := 0; done < len(f.Data); done += chunkSize / 8 {
		dst := f.Data[done:min(done+chunkSize/8, len(f.Data))]
		if m, err := io.ReadFull(r, buf[:8*len(dst)]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("field: reading sample %d: %w", done+m/8, err)
		}
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	return f, nil
}

// Save writes the field to the named file.
func (f *Field) Save(path string) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	defer w.Close()
	if _, err := f.WriteTo(w); err != nil {
		return err
	}
	return w.Close()
}

// Load reads a field from the named file.
func Load(path string) (*Field, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return ReadFrom(r)
}
