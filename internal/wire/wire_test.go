package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/raceflag"
)

// overflow is a varint of eleven bytes: more than 64 bits.
var overflow = []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}

// record is one of every field the Reader reads, in method order.
func record() []byte {
	b := binary.AppendUvarint(nil, 300)
	b = binary.AppendVarint(b, -5)
	b = append(b, 7, 'a', 'b', 'c')
	b = append(binary.AppendUvarint(b, 2), 'x', 'y')
	b = binary.LittleEndian.AppendUint32(b, 0xDEADBEEF)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(-1.5))
	for _, d := range []uint64{20, 17, 13} {
		b = binary.AppendUvarint(b, d)
	}
	return b
}

func TestReadsRecord(t *testing.T) {
	r := NewReader(record())
	if v := r.Uvarint(300); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -5 {
		t.Fatalf("Varint = %d", v)
	}
	if v := r.Byte(); v != 7 {
		t.Fatalf("Byte = %d", v)
	}
	if v := string(r.Bytes(3)); v != "abc" {
		t.Fatalf("Bytes = %q", v)
	}
	if v := string(r.Chunk()); v != "xy" {
		t.Fatalf("Chunk = %q", v)
	}
	if v := r.Uint32(); v != 0xDEADBEEF {
		t.Fatalf("Uint32 = %#x", v)
	}
	if v := r.Float64(); v != -1.5 {
		t.Fatalf("Float64 = %v", v)
	}
	if nx, ny, nz := r.Dims(); nx != 20 || ny != 17 || nz != 13 {
		t.Fatalf("Dims = %d×%d×%d", nx, ny, nz)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("after the record: err %v, %d bytes left", r.Err(), r.Len())
	}
}

// TestEachMethodFails feeds every method input that is short, above its
// bound or overflowing, and checks the error, the zero result and that the
// input is consumed no further.
func TestEachMethodFails(t *testing.T) {
	maxDims := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<20), 1<<20), 1<<20)
	for _, tc := range []struct {
		name string
		in   []byte
		read func(r *Reader) bool // reports whether the result is zero
		want error
	}{
		{"Uvarint empty", nil, func(r *Reader) bool { return r.Uvarint(9) == 0 }, ErrShort},
		{"Uvarint cut", []byte{0x80}, func(r *Reader) bool { return r.Uvarint(9) == 0 }, ErrShort},
		{"Uvarint above bound", []byte{10}, func(r *Reader) bool { return r.Uvarint(9) == 0 }, ErrRange},
		{"Uvarint overflow", overflow, func(r *Reader) bool { return r.Uvarint(math.MaxUint64) == 0 }, ErrRange},
		{"Varint cut", []byte{0x80, 0x80}, func(r *Reader) bool { return r.Varint() == 0 }, ErrShort},
		{"Varint overflow", overflow, func(r *Reader) bool { return r.Varint() == 0 }, ErrRange},
		{"Byte empty", nil, func(r *Reader) bool { return r.Byte() == 0 }, ErrShort},
		{"Bytes short", []byte{1, 2}, func(r *Reader) bool { return r.Bytes(3) == nil }, ErrShort},
		{"Bytes negative", []byte{1, 2}, func(r *Reader) bool { return r.Bytes(-1) == nil }, ErrShort},
		{"Chunk short", []byte{3, 1, 2}, func(r *Reader) bool { return r.Chunk() == nil }, ErrShort},
		{"Chunk longer than input", []byte{9, 1, 2}, func(r *Reader) bool { return r.Chunk() == nil }, ErrRange},
		{"Chunk overflow", overflow, func(r *Reader) bool { return r.Chunk() == nil }, ErrRange},
		{"Uint32 short", []byte{1, 2, 3}, func(r *Reader) bool { return r.Uint32() == 0 }, ErrShort},
		{"Float64 short", make([]byte, 7), func(r *Reader) bool { return r.Float64() == 0 }, ErrShort},
		{"Dims cut", []byte{4, 4}, func(r *Reader) bool { nx, ny, nz := r.Dims(); return nx|ny|nz == 0 }, ErrShort},
		{"Dims zero", []byte{4, 0, 4}, func(r *Reader) bool { nx, ny, nz := r.Dims(); return nx|ny|nz == 0 }, ErrRange},
		{"Dims over MaxSamples", maxDims, func(r *Reader) bool { nx, ny, nz := r.Dims(); return nx|ny|nz == 0 }, ErrRange},
		{"Dims overflow", overflow, func(r *Reader) bool { nx, ny, nz := r.Dims(); return nx|ny|nz == 0 }, ErrRange},
	} {
		r := NewReader(tc.in)
		if !tc.read(&r) {
			t.Errorf("%s: a failed read returned a value", tc.name)
		}
		if !errors.Is(r.Err(), tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, r.Err(), tc.want)
		}
		if r.Len() != 0 || r.Rest() != nil {
			t.Errorf("%s: %d bytes left to read after the error", tc.name, r.Len())
		}
	}
	if 1<<60 <= field.MaxSamples {
		t.Fatal("maxDims no longer exceeds field.MaxSamples")
	}
}

// TestFirstErrorSticks: once a read fails, later reads fail too, return
// zero values, and leave the first error in place.
func TestFirstErrorSticks(t *testing.T) {
	r := NewReader(append([]byte{10}, record()...))
	r.Uvarint(9)
	first := r.Err()
	if !errors.Is(first, ErrRange) {
		t.Fatalf("first error %v, want ErrRange", first)
	}
	if r.Uvarint(math.MaxUint64) != 0 || r.Varint() != 0 || r.Byte() != 0 || r.Bytes(0) != nil ||
		r.Chunk() != nil || r.Uint32() != 0 || r.Float64() != 0 {
		t.Fatal("a read after the error returned a value")
	}
	if nx, _, _ := r.Dims(); nx != 0 {
		t.Fatal("Dims after the error returned a value")
	}
	if r.Err() != first {
		t.Fatalf("error %v replaced the first one, %v", r.Err(), first)
	}
}

// TestReadAllocs: reading a record, and failing on one, allocates nothing;
// the Reader stays on the stack.
func TestReadAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	rec := record()
	var sink uint64
	ok := func() {
		r := NewReader(rec)
		sink += r.Uvarint(300) + uint64(r.Varint()) + uint64(r.Byte()) + uint64(len(r.Bytes(3))) +
			uint64(len(r.Chunk())) + uint64(r.Uint32()) + math.Float64bits(r.Float64())
		nx, _, _ := r.Dims()
		sink += uint64(nx)
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}
	bad := func() {
		r := NewReader(rec[:3])
		sink += r.Uvarint(9) + uint64(r.Byte()) + uint64(len(r.Chunk()))
		if r.Err() == nil {
			t.Fatal("no error")
		}
	}
	for name, fn := range map[string]func(){"record": ok, "failed record": bad} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocations per read, want 0", name, n)
		}
	}
	_ = sink
}
