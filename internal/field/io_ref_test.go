package field

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/raceflag"
)

// refWriteTo and refReadFromLimit are WriteTo and ReadFromLimit as they were
// before the chunked scratch replaced their bodies, one bufio call per
// sample: the reference the chunked code is held to, byte for byte on write
// and bit for bit on read.

func refWriteTo(f *Field, w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(f.Nx))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(f.Ny))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(f.Nz))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	var buf [8]byte
	for _, v := range f.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := bw.Write(buf[:]); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return int64(headerSize + 8*len(f.Data)), nil
}

func refReadFromLimit(r io.Reader, maxBytes int64) (*Field, error) {
	br := bufio.NewReader(r)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("field: reading header: %w", err)
	}
	nx, ny, nz, n, err := CheckDims(
		binary.LittleEndian.Uint64(hdr[0:]),
		binary.LittleEndian.Uint64(hdr[8:]),
		binary.LittleEndian.Uint64(hdr[16:]),
	)
	if err != nil {
		return nil, err
	}
	if maxBytes > 0 && headerSize+8*n > maxBytes {
		return nil, fmt.Errorf("field: %dx%dx%d needs %d bytes, over the %d-byte limit: %w",
			nx, ny, nz, headerSize+8*n, maxBytes, ErrTooLarge)
	}
	f := New(nx, ny, nz)
	var buf [8]byte
	for i := range f.Data {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("field: reading sample %d: %w", i, err)
		}
		f.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	return f, nil
}

// ioShapes end the payload at, 8 bytes before and 8 bytes after the first
// 64 KiB boundary of each direction — WriteTo's first chunk holds the
// 24-byte header, ReadFromLimit's chunks start after it — besides a single
// sample and a non-cubic field of four chunks.
var ioShapes = [][3]int{
	{1, 1, 1},
	{4, 23, 89},  // 8 188 samples: 65 528 bytes on the wire
	{19, 1, 431}, // 8 189: 65 536
	{13, 18, 35}, // 8 190: 65 544
	{8191, 1, 1}, // 65 528 bytes of samples
	{16, 16, 32}, // 65 536
	{1, 3, 2731}, // 65 544
	{37, 29, 23},
}

// ioSpecials are the bit patterns a float conversion could disturb.
var ioSpecials = []float64{
	math.Float64frombits(0x7ff8000000000001), // quiet NaN with a payload
	math.Float64frombits(0xfff40000c0ffee00), // signalling NaN, sign bit set
	math.Copysign(0, -1),
	math.Inf(1),
	math.Inf(-1),
	math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
}

// ioField is nastyField with every special bit pattern at the start and the
// end of the data and sprinkled in between.
func ioField(nx, ny, nz int, seed int64) *Field {
	f := nastyField(nx, ny, nz, seed)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		if rng.Intn(8) == 0 {
			f.Data[i] = ioSpecials[rng.Intn(len(ioSpecials))]
		}
	}
	for i, v := range ioSpecials {
		f.Data[i%len(f.Data)] = v
		f.Data[len(f.Data)-1-i%len(f.Data)] = v
	}
	return f
}

func encodeRef(t *testing.T, f *Field) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := refWriteTo(f, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// callWriter records what it is handed and how many calls it took.
type callWriter struct {
	bytes.Buffer
	calls int
}

func (w *callWriter) Write(p []byte) (int, error) {
	w.calls++
	return w.Buffer.Write(p)
}

func TestWriteToMatchesReference(t *testing.T) {
	for _, s := range ioShapes {
		f := ioField(s[0], s[1], s[2], int64(s[2]))
		want := encodeRef(t, f)
		var got callWriter
		n, err := f.WriteTo(&got)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if n != int64(len(want)) {
			t.Errorf("%v: WriteTo returned %d, wrote %d bytes, want %d", s, n, got.Len(), len(want))
		}
		if !bytes.Equal(got.Bytes(), want) {
			i := 0
			for i < min(got.Len(), len(want)) && got.Bytes()[i] == want[i] {
				i++
			}
			t.Fatalf("%v: %d bytes, reference %d; first difference at byte %d", s, got.Len(), len(want), i)
		}
		if chunks := (len(want) + chunkSize - 1) / chunkSize; got.calls != chunks {
			t.Errorf("%v: %d writes for %d bytes, want one per 64 KiB (%d)", s, got.calls, len(want), chunks)
		}
	}
}

// ioReaders hand a body over whole, one byte per call, and half of each
// request per call.
var ioReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

func TestReadFromMatchesReference(t *testing.T) {
	tail := []byte("the next message")
	for _, s := range ioShapes {
		f := ioField(s[0], s[1], s[2], int64(s[0]))
		wire := encodeRef(t, f)
		body := append(append([]byte(nil), wire...), tail...)
		want, err := refReadFromLimit(bytes.NewReader(wire), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(want, f); err != nil {
			t.Fatalf("%v: reference round trip: %v", s, err)
		}
		for _, rd := range ioReaders {
			src := bytes.NewReader(body)
			got, err := ReadFromLimit(rd.wrap(src), int64(len(wire)))
			if err != nil {
				t.Fatalf("%v %s: %v", s, rd.name, err)
			}
			if err := sameBits(got, want); err != nil {
				t.Fatalf("%v %s: %v", s, rd.name, err)
			}
			// Nothing past the field is consumed, so a caller can check for
			// trailing bytes or read what follows.
			if src.Len() != len(tail) {
				t.Fatalf("%v %s: %d bytes left after the field, want the %d-byte tail", s, rd.name, src.Len(), len(tail))
			}
		}
	}
}

// TestReadFromTruncated cuts a four-chunk body inside the header, at each
// chunk boundary of both directions, and in the middle of samples: every cut
// fails, naming the same sample as the reference, with an error that is
// io.ErrUnexpectedEOF once the header is whole.
func TestReadFromTruncated(t *testing.T) {
	wire := encodeRef(t, ioField(37, 29, 23, 4))
	cuts := []int{0, 1, headerSize - 1, headerSize, headerSize + 3, headerSize + 8*100 + 5, len(wire) - 8, len(wire) - 1}
	for b := chunkSize; b < len(wire); b += chunkSize {
		cuts = append(cuts, b, b+headerSize, b+headerSize+5)
	}
	for _, cut := range cuts {
		for _, rd := range ioReaders {
			_, err := ReadFromLimit(rd.wrap(bytes.NewReader(wire[:cut])), 0)
			_, refErr := refReadFromLimit(bytes.NewReader(wire[:cut]), 0)
			if err == nil || refErr == nil {
				t.Fatalf("cut at %d %s: err %v, reference err %v", cut, rd.name, err, refErr)
			}
			switch {
			case cut == 0:
				if !errors.Is(err, io.EOF) || !strings.Contains(err.Error(), "reading header") {
					t.Errorf("empty body %s: %v", rd.name, err)
				}
			case cut < headerSize:
				if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "reading header") {
					t.Errorf("cut at %d %s: %v", cut, rd.name, err)
				}
			default:
				sample := fmt.Sprintf("reading sample %d:", (cut-headerSize)/8)
				if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), sample) {
					t.Errorf("cut at %d %s: %v, want io.ErrUnexpectedEOF %q", cut, rd.name, err, sample)
				}
				if !strings.Contains(refErr.Error(), sample) {
					t.Errorf("cut at %d: reference says %v, want %q", cut, refErr, sample)
				}
			}
		}
	}
}

// failingWriter accepts whole writes until its failAt-th call, of which it
// takes half and then fails.
type failingWriter struct {
	calls, failAt int
	accepted      int64
}

var errWriteFailed = errors.New("write failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == w.failAt {
		w.accepted += int64(len(p) / 2)
		return len(p) / 2, errWriteFailed
	}
	w.accepted += int64(len(p))
	return len(p), nil
}

func TestWriteToStopsAtWriterError(t *testing.T) {
	f := ioField(37, 29, 23, 5)
	writes := (headerSize + 8*f.Len() + chunkSize - 1) / chunkSize
	for k := 1; k <= writes; k++ {
		w := &failingWriter{failAt: k}
		n, err := f.WriteTo(w)
		if !errors.Is(err, errWriteFailed) {
			t.Fatalf("writer failing on call %d: err = %v", k, err)
		}
		if n != w.accepted || w.calls != k {
			t.Fatalf("writer failing on call %d: returned %d bytes after %d calls, writer accepted %d", k, n, w.calls, w.accepted)
		}
	}
}

// TestFieldIOAllocBudget: once the scratch pool is warm WriteTo allocates
// nothing, and ReadFromLimit allocates only the field it returns.
func TestFieldIOAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	// No collection during the measurement: a GC empties the pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f := ioField(37, 29, 23, 6)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := f.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteTo allocates %v times per call, want 0", n)
	}
	wire := encodeRef(t, f)
	src := bytes.NewReader(nil)
	var g *Field
	fresh := testing.AllocsPerRun(20, func() { g = New(f.Nx, f.Ny, f.Nz) })
	if n := testing.AllocsPerRun(20, func() {
		src.Reset(wire)
		var err error
		if g, err = ReadFromLimit(src, 0); err != nil {
			t.Fatal(err)
		}
	}); n > fresh {
		t.Errorf("ReadFromLimit allocates %v times per call, field.New alone %v", n, fresh)
	}
	_ = g
}

func BenchmarkWriteTo(b *testing.B) {
	f := nastyField(128, 128, 128, 1)
	b.SetBytes(int64(headerSize + 8*f.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFrom(b *testing.B) {
	var wire bytes.Buffer
	if _, err := nastyField(128, 128, 128, 1).WriteTo(&wire); err != nil {
		b.Fatal(err)
	}
	src := bytes.NewReader(nil)
	b.SetBytes(int64(wire.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(wire.Bytes())
		if _, err := ReadFrom(src); err != nil {
			b.Fatal(err)
		}
	}
}
