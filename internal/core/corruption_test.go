package core

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/index"
	"repro/internal/synth"
	"repro/internal/sz2"
	"repro/internal/sz3"
	"repro/internal/zfp"
)

// Failure injection: decoders must never panic on corrupted or truncated
// input — they must either return an error or (for corruption the checksums
// cannot see, e.g. flipped data bits) produce some decoded output.

func corruptionHierarchy(t *testing.T) *grid.Hierarchy {
	t.Helper()
	f := synth.Generate(synth.Nyx, 32, 11)
	h, err := grid.BuildAMR(f, 8, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// mustNotPanic runs fn and converts any panic into a test failure.
func mustNotPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", what, r)
		}
	}()
	fn()
}

func TestContainerTruncationNeverPanics(t *testing.T) {
	h := corruptionHierarchy(t)
	c, err := CompressHierarchy(h, SZ3MROptions(1e-3*h.Levels[0].Data.ValueRange()))
	if err != nil {
		t.Fatal(err)
	}
	blob := c.Blob
	// The index footer is strictly additive: cutting anywhere inside the
	// body must error, while cutting only footer bytes still decodes (the
	// sequential decoder never reads past the last stream).
	body, ok := index.Locate(blob)
	if !ok {
		t.Fatal("compressed container has no index footer")
	}
	for _, n := range []int{0, 1, 4, 5, 12, body / 4, body / 2, body - 1} {
		n := n
		mustNotPanic(t, "truncated container", func() {
			if _, err := Decompress(blob[:n]); err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", n)
			}
		})
	}
	for _, n := range []int{body, body + 1, len(blob) - 1} {
		g, err := Decompress(blob[:n])
		if err != nil {
			t.Fatalf("footer-only truncation to %d bytes failed to decode: %v", n, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("footer-only truncation to %d bytes decoded invalid hierarchy: %v", n, err)
		}
	}
}

// TestZeroedHeaderDecodesFromFooter is the case the header-trusting decoder
// could not pass: with everything ahead of the first stream zeroed — magic,
// version, options, dims, level 0's block list — a container whose footer is
// intact still decodes to the pristine hierarchy, because the CRC-covered
// index is the only description of the container any decoder acts on. The
// same bytes without the footer have nothing left to describe them.
func TestZeroedHeaderDecodesFromFooter(t *testing.T) {
	h := corruptionHierarchy(t)
	eb := 1e-3 * h.Levels[0].Data.ValueRange()
	for _, opt := range []Options{SZ3MROptions(eb), TACSZ3Options(eb)} {
		c, err := CompressHierarchy(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Decompress(c.Blob)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := loadIndex(c.Blob)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), c.Blob...)
		clear(bad[:ix.Streams[0].Offset])
		got, err := Decompress(bad)
		if err != nil {
			t.Fatalf("%v: zeroed header under an intact footer: %v", opt.Arrangement, err)
		}
		if !ownershipEqual(want, got) || maxLevelError(want, got) != 0 {
			t.Fatalf("%v: zeroed header changed the decode", opt.Arrangement)
		}
		if _, err := Decompress(stripFooter(t, bad)); err == nil {
			t.Fatalf("%v: zeroed header decoded without a footer", opt.Arrangement)
		}
	}
}

func TestContainerBitFlipsNeverPanic(t *testing.T) {
	h := corruptionHierarchy(t)
	for _, comp := range []Compressor{SZ3, SZ2, ZFP} {
		c, err := CompressHierarchy(h, Options{EB: 1e5, Compressor: comp})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 200; trial++ {
			blob := make([]byte, len(c.Blob))
			copy(blob, c.Blob)
			pos := rng.Intn(len(blob))
			blob[pos] ^= 1 << uint(rng.Intn(8))
			mustNotPanic(t, comp.String()+" bit flip", func() {
				_, _ = Decompress(blob) // error or success both fine
			})
		}
	}
}

func TestBackendBitFlipsNeverPanic(t *testing.T) {
	f := synth.Generate(synth.S3D, 16, 12)
	eb := f.ValueRange() * 1e-3
	type codec struct {
		name string
		enc  func() ([]byte, error)
		dec  func([]byte) error
	}
	codecs := []codec{
		{"sz3",
			func() ([]byte, error) { return sz3.Compress(nil, f, sz3.Options{EB: eb}) },
			func(b []byte) error { _, err := sz3.Decompress(nil, b); return err }},
		{"sz2",
			func() ([]byte, error) { return sz2.Compress(nil, f, sz2.Options{EB: eb}) },
			func(b []byte) error { _, err := sz2.Decompress(nil, b); return err }},
		{"zfp",
			func() ([]byte, error) { return zfp.Compress(nil, f, zfp.Options{Tolerance: eb}) },
			func(b []byte) error { _, err := zfp.Decompress(nil, b); return err }},
	}
	rng := rand.New(rand.NewSource(14))
	for _, c := range codecs {
		blob, err := c.enc()
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			mut := make([]byte, len(blob))
			copy(mut, blob)
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
			mustNotPanic(t, c.name+" bit flip", func() { _ = c.dec(mut) })
		}
		for _, n := range []int{0, 1, len(blob) / 3, len(blob) - 1} {
			n := n
			mustNotPanic(t, c.name+" truncation", func() {
				if err := c.dec(blob[:n]); err == nil {
					t.Fatalf("%s decoded %d-byte truncation", c.name, n)
				}
			})
		}
	}
}

func TestRandomGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 100; trial++ {
		blob := make([]byte, rng.Intn(512))
		rng.Read(blob)
		mustNotPanic(t, "garbage", func() { _, _ = Decompress(blob) })
		mustNotPanic(t, "garbage sz3", func() { _, _ = sz3.Decompress(nil, blob) })
		mustNotPanic(t, "garbage sz2", func() { _, _ = sz2.Decompress(nil, blob) })
		mustNotPanic(t, "garbage zfp", func() { _, _ = zfp.Decompress(nil, blob) })
	}
}
