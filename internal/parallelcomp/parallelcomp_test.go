package parallelcomp

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/field"
	"repro/internal/synth"
)

func mustCodec(t *testing.T, id byte) codec.Codec {
	t.Helper()
	cd, ok := codec.ByID(id)
	if !ok {
		t.Fatal(codec.ErrUnknownID(id))
	}
	return cd
}

func totalBytes(slabs [][]byte) int {
	n := 0
	for _, s := range slabs {
		n += len(s)
	}
	return n
}

func TestRoundTripWithinBound(t *testing.T) {
	f := synth.Generate(synth.S3D, 32, 1)
	eb := f.ValueRange() * 1e-3
	sz2 := mustCodec(t, codec.SZ2ID)
	for _, workers := range []int{1, 2, 4, 7} {
		slabs, err := Compress(f, sz2, codec.Params{EB: eb}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(slabs) != workers {
			t.Fatalf("workers=%d: %d slabs", workers, len(slabs))
		}
		g, err := Decompress(slabs, sz2)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !g.SameShape(f) {
			t.Fatalf("workers=%d: shape %v, want %v", workers, g, f)
		}
		if d := f.MaxAbsDiff(g); d > eb*(1+1e-12) {
			t.Fatalf("workers=%d: error %g exceeds %g", workers, d, eb)
		}
	}
}

func TestParallelCRPenalty(t *testing.T) {
	// The paper's observation: parallel (chunked) SZ2 compresses worse than
	// serial because slabs lose shared context.
	f := synth.Generate(synth.Nyx, 48, 2)
	p := codec.Params{EB: f.ValueRange() * 1e-3}
	sz2 := mustCodec(t, codec.SZ2ID)
	serial, err := Compress(f, sz2, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Compress(f, sz2, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if totalBytes(par) <= totalBytes(serial) {
		t.Fatalf("expected CR penalty for chunked compression: serial %d, parallel %d", totalBytes(serial), totalBytes(par))
	}
}

func TestZFPCodecRoundTrip(t *testing.T) {
	f := synth.Generate(synth.Hurricane, 24, 3)
	tol := f.ValueRange() * 5e-3
	zfp := mustCodec(t, codec.ZFPID)
	slabs, err := Compress(f, zfp, codec.Params{EB: tol}, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(slabs, zfp)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.MaxAbsDiff(g); d > tol {
		t.Fatalf("error %g exceeds %g", d, tol)
	}
}

func TestWorkersClampedToDepth(t *testing.T) {
	f := field.New(8, 8, 3) // only 3 z planes
	f.Fill(1)
	sz2 := mustCodec(t, codec.SZ2ID)
	slabs, err := Compress(f, sz2, codec.Params{EB: 0.01}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(slabs) != 3 {
		t.Fatalf("%d slabs, want one per z plane (3)", len(slabs))
	}
	g, err := Decompress(slabs, sz2)
	if err != nil {
		t.Fatal(err)
	}
	if !g.SameShape(f) {
		t.Fatal("shape lost")
	}
}

// TestDecompressValidation checks that a damaged slab, a slab set with
// mismatched XY extents, and an empty slab set all fail to decode.
func TestDecompressValidation(t *testing.T) {
	sz2 := mustCodec(t, codec.SZ2ID)
	f := synth.Generate(synth.S3D, 16, 4)
	p := codec.Params{EB: f.ValueRange() * 1e-3}
	slabs, err := Compress(f, sz2, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	truncated := [][]byte{slabs[0], slabs[1][:len(slabs[1])/2]}
	if _, err := Decompress(truncated, sz2); err == nil {
		t.Fatal("truncated slab accepted")
	}
	other, err := Compress(synth.Generate(synth.S3D, 8, 4), sz2, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress([][]byte{slabs[0], other[0]}, sz2); err == nil {
		t.Fatal("slabs with mismatched Nx/Ny accepted")
	}
	if _, err := Decompress(nil, sz2); err == nil {
		t.Fatal("empty slab set accepted")
	}
}
