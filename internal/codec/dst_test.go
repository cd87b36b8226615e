package codec

import (
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/field"
	"repro/internal/raceflag"
	"repro/internal/synth"
)

// dirtyField returns an nx×ny×nz field whose every sample is NaN: a
// destination a decode must overwrite completely, and whose leftovers
// change the bits of any prediction that reads them.
func dirtyField(nx, ny, nz int) *field.Field {
	f := field.New(nx, ny, nz)
	f.Fill(math.NaN())
	return f
}

// sameBits reports whether a and b have one shape and identical sample bits.
func sameBits(a, b *field.Field) bool {
	if !a.SameShape(b) || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// dstCases is every codec under the parameters the pipeline uses, sz3 with
// both interpolants and the adaptive bound.
func dstCases(eb float64) []struct {
	name string
	c    Codec
	p    Params
} {
	sz3, _ := ByID(SZ3ID)
	sz2, _ := ByID(SZ2ID)
	zfp, _ := ByID(ZFPID)
	fl, _ := ByID(FlateID)
	return []struct {
		name string
		c    Codec
		p    Params
	}{
		{"sz3", sz3, Params{EB: eb}},
		{"sz3-cubic-adaptive", sz3, Params{EB: eb, Interp: 1, AdaptiveEB: true, Alpha: 2.25, Beta: 8}},
		{"sz2", sz2, Params{EB: eb, SZ2BlockSize: 4}},
		{"zfp", zfp, Params{EB: eb}},
		{"flate", fl, Params{}},
	}
}

// TestDecompressIntoDirtyDestination holds every codec to Decompress's
// destination contract: decoding into a NaN-filled field — smaller than the
// stream's, larger, or the same size — gives the Float64bits of a fresh
// decode, and a destination whose array is large enough is the one
// returned, its array kept. The fields' origins sit at zero, so an sz3
// decode that predicted the origin from a leftover sample instead of from
// zero would differ in the first sample and in every one predicted from it.
func TestDecompressIntoDirtyDestination(t *testing.T) {
	for _, shape := range [][3]int{{16, 16, 16}, {13, 7, 5}} {
		f := synth.Generate(synth.Nyx, 16, 4).SubBlock(0, 0, 0, shape[0], shape[1], shape[2])
		origin := f.Data[0]
		for i := range f.Data {
			f.Data[i] -= origin
		}
		eb := f.ValueRange() * 1e-3
		n := len(f.Data)
		for _, tc := range dstCases(eb) {
			blob, err := tc.c.Compress(f, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.c.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			for _, dst := range []*field.Field{
				dirtyField(3, 2, 1),
				dirtyField(2*n, 1, 1),
				dirtyField(shape[0], shape[1], shape[2]),
			} {
				arr, room := &dst.Data[0], cap(dst.Data)
				got, err := tc.c.Decompress(blob, dst)
				if err != nil {
					t.Fatalf("%s %v: into a %d-sample destination: %v", tc.name, shape, room, err)
				}
				if got != dst {
					t.Fatalf("%s %v: the destination was not the field returned", tc.name, shape)
				}
				if room >= n && &got.Data[0] != arr {
					t.Fatalf("%s %v: a %d-sample array was replaced for %d samples", tc.name, shape, room, n)
				}
				if !sameBits(got, want) {
					t.Fatalf("%s %v: decoding into a dirty %d-sample destination changed the bits", tc.name, shape, room)
				}
			}
		}
	}
}

// TestCompressAppendsToDestination checks Compress's destination contract:
// the stream is appended after what dst holds, with the bytes of a call
// without one, in dst's array when it has the room.
func TestCompressAppendsToDestination(t *testing.T) {
	f := synth.Generate(synth.Nyx, 16, 5)
	for _, tc := range dstCases(f.ValueRange() * 1e-3) {
		want, err := tc.c.Compress(f, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		dst := append(make([]byte, 0, 2*len(want)+1024), "prefix"...)
		got, err := tc.c.Compress(f, tc.p, dst)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:6]) != "prefix" || string(got[6:]) != string(want) {
			t.Fatalf("%s: appended stream differs from a stream written alone", tc.name)
		}
		if &got[0] != &dst[0] {
			t.Fatalf("%s: a %d-byte destination was reallocated for a %d-byte stream", tc.name, cap(dst), len(want))
		}
	}
}

// TestDestinationAllocBudget pins what a destination saves: decoding into
// a field large enough allocates two fewer times than a fresh decode (the
// field and its array), and compressing into a buffer with room allocates
// fewer times than compressing into none (the output buffer). It is the
// per-stream saving a container write and a full decode are built on.
func TestDestinationAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	f := synth.Generate(synth.Nyx, 16, 6)
	// No collection during the measurement: a GC empties the codecs'
	// scratch pools, and refilling them would add allocations to one run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range dstCases(f.ValueRange() * 1e-3) {
		blob, err := tc.c.Compress(f, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		dst := field.New(f.Nx, f.Ny, f.Nz)
		fresh := testing.AllocsPerRun(20, func() { tc.c.Decompress(blob) })
		into := testing.AllocsPerRun(20, func() { tc.c.Decompress(blob, dst) })
		if into > fresh-2 {
			t.Errorf("%s: Decompress into a destination: %v allocations, fresh %v; want 2 fewer", tc.name, into, fresh)
		}
		buf := make([]byte, 0, 2*len(blob)+1024)
		alone := testing.AllocsPerRun(20, func() { tc.c.Compress(f, tc.p) })
		appended := testing.AllocsPerRun(20, func() { tc.c.Compress(f, tc.p, buf) })
		if appended > alone-1 {
			t.Errorf("%s: Compress into a buffer: %v allocations, alone %v; want at least 1 fewer", tc.name, appended, alone)
		}
	}
}
