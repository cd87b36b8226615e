package codec

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/synth"
)

// seedGoldenStreams walks the committed golden containers' footers and adds
// each backend stream — with its real wire ID — to the corpus, so the fuzzer
// starts from on-disk bytes of every codec we ship (including the mixed
// per-level v4 container) rather than only freshly generated ones.
func seedGoldenStreams(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "core", "testdata", "*.mrw"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden containers found: %v", err)
	}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			f.Fatalf("read golden container: %v", err)
		}
		ix, err := index.ReadFrom(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			f.Fatalf("%s: golden container has no parseable footer: %v", p, err)
		}
		for _, s := range ix.Streams {
			if s.Offset < 0 || s.Len < 0 || s.Offset+s.Len > int64(len(blob)) {
				f.Fatalf("%s: stream out of bounds", p)
			}
			f.Add(s.Compressor, blob[s.Offset:s.Offset+s.Len])
		}
	}
}

// FuzzDecodeStream hammers every registered codec's payload parser with a
// fuzzed wire ID + payload — the exact bytes a hostile container or index
// footer could hand the per-stream decode path. The contract mirrors the
// container header scan's: reject or accept, never panic, and anything
// accepted must be an internally consistent field, decoded to the same bits
// into a fresh field and into a dirty reused one. It complements
// internal/index's FuzzContainerIndex, which covers the footer locating
// the streams; this covers decoding them.
func FuzzDecodeStream(f *testing.F) {
	seedGoldenStreams(f)
	// Seed with each codec's valid output over two small fields plus
	// truncations and raw garbage, so the fuzzer starts inside every
	// backend's header grammar.
	fields := []struct {
		size int
		seed int64
	}{{8, 1}, {12, 2}}
	for _, fs := range fields {
		src := synth.Generate(synth.Nyx, fs.size, fs.seed)
		eb := src.ValueRange() * 1e-3
		for _, c := range codecs {
			blob, err := c.Compress(src, Params{EB: eb})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(c.WireID(), blob)
			f.Add(c.WireID(), blob[:len(blob)/2])
			for _, other := range codecs {
				f.Add(other.WireID(), blob) // payload under the wrong codec
			}
		}
	}
	f.Add(byte(0), []byte{})
	f.Add(byte(200), []byte("MRWF garbage"))

	f.Fuzz(func(t *testing.T, id byte, payload []byte) {
		c, ok := ByID(id)
		if !ok {
			return // unregistered IDs are rejected before decode dispatch
		}
		g, err := c.Decompress(payload)
		// A reused destination holds anything: decoding into a NaN-filled
		// one must fail when the fresh decode fails and give its bits when
		// it succeeds.
		d, dErr := c.Decompress(payload, dirtyField(64, 8, 1))
		if (err == nil) != (dErr == nil) {
			t.Fatalf("%s: fresh decode error %v, into a dirty destination %v", c.Name(), err, dErr)
		}
		if err != nil {
			return
		}
		if g == nil {
			t.Fatalf("%s: nil field with nil error", c.Name())
		}
		if g.Nx <= 0 || g.Ny <= 0 || g.Nz <= 0 || len(g.Data) != g.Nx*g.Ny*g.Nz {
			t.Fatalf("%s: inconsistent decoded field %dx%dx%d with %d samples",
				c.Name(), g.Nx, g.Ny, g.Nz, len(g.Data))
		}
		if !sameBits(g, d) {
			t.Fatalf("%s: decoding into a dirty destination changed the bits", c.Name())
		}
	})
}
