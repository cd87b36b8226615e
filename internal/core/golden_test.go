package core

import (
	"bytes"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/grid"
	"repro/internal/index"
	"repro/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures from the current coder")

// goldenHierarchy is the fixed input both golden fixtures were produced
// from.
func goldenHierarchy(t *testing.T) (*grid.Hierarchy, float64) {
	t.Helper()
	f := synth.Generate(synth.Nyx, 32, 7)
	h, err := grid.BuildAMR(f, 16, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	return h, f.ValueRange() * 1e-3
}

// goldenCases are the committed container fixtures: one per backend
// (locking each codec's container path byte-for-byte across refactors),
// a mixed-codec container exercising the per-level override format, and
// one per remaining merged arrangement (stack, Morton 1D). crcs says the
// fixture's footer carries stream CRCs: the first four predate them.
var goldenCases = []struct {
	name string
	file string
	opts func(eb float64) Options
	crcs bool
}{
	{"tac-sz3", "golden-tac-sz3-v3.mrw", TACSZ3Options, false},
	{"linear-sz2", "golden-linear-sz2-v3.mrw", AMRICSZ2Options, false},
	{"linear-zfp", "golden-linear-zfp-v3.mrw", MRZFPOptions, false},
	// Fine level error-bounded sz3, coarse level lossless flate: the
	// canonical mixed-precision configuration, written as format v4.
	{"mixed-sz3-flate", "golden-mixed-sz3-flate-v4.mrw", func(eb float64) Options {
		o := SZ3MROptions(eb)
		o.LevelCodecs = map[int]Compressor{1: Flate}
		return o
	}, false},
	{"stack-sz3", "golden-stack-sz3-v3.mrw", AMRICSZ3Options, true},
	{"zorder1d-sz3", "golden-zorder1d-sz3-v3.mrw", func(eb float64) Options {
		return Options{EB: eb, Compressor: SZ3, Arrangement: ArrangeZOrder1D}
	}, true},
}

// TestGoldenContainer locks the container bodies — header layout, every
// per-stream backend payload, per-stream codec bytes (v4) — byte-for-byte
// against every committed fixture, and pins the footer transition: the
// writer emits the checked footer (per-stream CRCs) over an unchanged body,
// while the committed fixtures' original footers must keep parsing — with
// verification reported available exactly where the fixture's footer has
// it — and decoding.
func TestGoldenContainer(t *testing.T) {
	h, eb := goldenHierarchy(t)
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			c, err := CompressHierarchy(h, gc.opts(eb))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", gc.file)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, c.Blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read fixture (regenerate with -update): %v", err)
			}
			gotBody, ok := index.Locate(c.Blob)
			if !ok {
				t.Fatal("written container has no index footer")
			}
			wantBody, ok := index.Locate(want)
			if !ok {
				t.Fatal("fixture has no index footer")
			}
			if !bytes.Equal(c.Blob[:gotBody], want[:wantBody]) {
				t.Fatalf("container body diverged from golden fixture: got %d bytes, fixture %d bytes", gotBody, wantBody)
			}
			// The freshly written footer carries per-stream checksums that
			// match the payload bytes it indexes.
			gotIx, err := index.ReadFrom(bytes.NewReader(c.Blob), int64(len(c.Blob)))
			if err != nil {
				t.Fatal(err)
			}
			if !gotIx.StreamCRCs {
				t.Fatal("written footer carries no stream CRCs")
			}
			for i, s := range gotIx.Streams {
				if crc32.ChecksumIEEE(c.Blob[s.Offset:s.Offset+s.Len]) != s.CRC {
					t.Fatalf("stream %d: footer CRC does not match payload bytes", i)
				}
			}
			// The fixture's original footer still parses, reports
			// verification as its footer version has it, and locates the
			// same streams.
			wantIx, err := index.ReadFrom(bytes.NewReader(want), int64(len(want)))
			if err != nil {
				t.Fatalf("parse fixture footer: %v", err)
			}
			if wantIx.StreamCRCs != gc.crcs {
				t.Fatalf("committed fixture footer reports stream CRCs %v, want %v", wantIx.StreamCRCs, gc.crcs)
			}
			if len(wantIx.Streams) != len(gotIx.Streams) {
				t.Fatalf("fixture indexes %d streams, writer %d", len(wantIx.Streams), len(gotIx.Streams))
			}
			// Both generations decode: the fixture without verification, the
			// new container through the CRC-verifying path.
			if _, err := Decompress(want); err != nil {
				t.Fatalf("decode fixture: %v", err)
			}
			if _, err := Decompress(c.Blob); err != nil {
				t.Fatalf("decode verified container: %v", err)
			}
		})
	}
}

// TestGoldenMixedCodecContainer pins the mixed-codec fixture's semantics:
// it is a version-4 container whose index names both codecs, and its
// flate-compressed coarse level reconstructs the input bit-exactly while
// the sz3 fine level stays within the error bound.
func TestGoldenMixedCodecContainer(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "golden-mixed-sz3-flate-v4.mrw"))
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update): %v", err)
	}
	if blob[4] != containerVersionMixed {
		t.Fatalf("mixed fixture has container version %d, want %d", blob[4], containerVersionMixed)
	}
	ix, err := index.ReadFrom(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	codecs := map[int]Compressor{}
	for _, s := range ix.Streams {
		codecs[s.Level] = Compressor(s.Compressor)
	}
	if codecs[0] != SZ3 || codecs[1] != Flate {
		t.Fatalf("index stream codecs = %v, want level 0 SZ3, level 1 Flate", codecs)
	}
	got, err := Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	h, eb := goldenHierarchy(t)
	if !got.Levels[1].Data.Equal(h.Levels[1].Data) {
		t.Fatal("flate level of the mixed container is not bit-exact")
	}
	if d := h.Levels[0].Data.MaxAbsDiff(got.Levels[0].Data); d > eb {
		t.Fatalf("sz3 level error %g exceeds bound %g", d, eb)
	}
}

// TestGoldenV2BodyIdentity proves the v3 format is strictly additive: the
// v3 fixture's body, with only the version byte rewritten, must equal the
// committed v2 fixture byte-for-byte — so decoders that ignore the index
// see exactly the container they always saw.
func TestGoldenV2BodyIdentity(t *testing.T) {
	v3, err := os.ReadFile(filepath.Join("testdata", "golden-tac-sz3-v3.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "golden-tac-sz3.mrc"))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := index.Locate(v3)
	if !ok {
		t.Fatal("v3 fixture has no index footer")
	}
	asV2 := append([]byte(nil), v3[:body]...)
	if asV2[4] != 3 {
		t.Fatalf("v3 fixture has version byte %d", asV2[4])
	}
	asV2[4] = 2
	if !bytes.Equal(asV2, v2) {
		t.Fatalf("v3 body (%d bytes) is not the v2 container (%d bytes) plus a footer", body, len(v2))
	}
}

// TestGoldenV2StillDecodes locks the v2 read path: the pre-index fixture
// must keep decoding to exactly the hierarchy the current coder produces.
func TestGoldenV2StillDecodes(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "golden-tac-sz3.mrc"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(blob)
	if err != nil {
		t.Fatalf("decode v2 fixture: %v", err)
	}
	h, eb := goldenHierarchy(t)
	c, err := CompressHierarchy(h, TACSZ3Options(eb))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decompress(c.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("level count %d != %d", len(got.Levels), len(want.Levels))
	}
	for li := range got.Levels {
		if !got.Levels[li].Data.Equal(want.Levels[li].Data) {
			t.Fatalf("level %d: v2 fixture decode differs from current decode", li)
		}
	}
}
