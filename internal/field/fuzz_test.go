package field

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// FuzzReadFrom feeds ReadFromLimit arbitrary bodies under a 1 MiB limit. It
// must never panic; a header implying more than the limit must be refused
// with ErrTooLarge before anything is allocated for it; and a body it
// accepts must re-encode through WriteTo to exactly the bytes it consumed —
// which also says it read nothing past the field.
func FuzzReadFrom(f *testing.F) {
	const limit = 1 << 20
	for _, s := range [][3]int{{1, 1, 1}, {3, 2, 5}, {1, 3, 2731}} {
		var wire bytes.Buffer
		if _, err := ioField(s[0], s[1], s[2], 1).WriteTo(&wire); err != nil {
			f.Fatal(err)
		}
		b := wire.Bytes()
		for _, cut := range []int{len(b), len(b) - 1, len(b) / 2, headerSize, 5} {
			f.Add(b[:cut])
		}
		f.Add(append(b[:len(b):len(b)], "trailing bytes"...))
	}
	huge := make([]byte, headerSize)
	for _, off := range []int{0, 8, 16} {
		binary.LittleEndian.PutUint64(huge[off:], 2048)
	}
	f.Add(huge)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		overLimit := false
		if len(body) >= headerSize {
			_, _, _, n, err := CheckDims(binary.LittleEndian.Uint64(body[0:]),
				binary.LittleEndian.Uint64(body[8:]), binary.LittleEndian.Uint64(body[16:]))
			overLimit = err == nil && headerSize+8*n > limit
		}
		src := bytes.NewReader(body)
		var before, after runtime.MemStats
		if overLimit {
			runtime.ReadMemStats(&before)
		}
		g, err := ReadFromLimit(src, limit)
		if overLimit {
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("header over the limit: err = %v, want ErrTooLarge", err)
			}
			// The pooled scratch may be allocated afresh; the field may not.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > limit/4 {
				t.Fatalf("refusing an over-limit header allocated %d bytes", grew)
			}
			return
		}
		if err != nil {
			return
		}
		consumed := len(body) - src.Len()
		var out bytes.Buffer
		if _, err := g.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), body[:consumed]) {
			t.Fatalf("read %d bytes into a %dx%dx%d field that re-encodes to %d different bytes",
				consumed, g.Nx, g.Ny, g.Nz, out.Len())
		}
	})
}
