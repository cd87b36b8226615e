package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/roi"
	"repro/internal/synth"
)

func amrHierarchy(t testing.TB, n int, seed int64) *grid.Hierarchy {
	t.Helper()
	f := synth.Generate(synth.Nyx, n, seed)
	h, err := grid.BuildAMR(f, 16, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// blockField copies unit block bc of a level out as a standalone field.
func blockField(h *grid.Hierarchy, level int, bc [3]int) *field.Field {
	u := h.UnitBlockSize(level)
	return h.Levels[level].Data.SubBlock(bc[0]*u, bc[1]*u, bc[2]*u, u, u, u)
}

// maxLevelError returns the max abs error between matching owned blocks of
// two hierarchies.
func maxLevelError(a, b *grid.Hierarchy) float64 {
	worst := 0.0
	for li := range a.Levels {
		for _, bc := range a.OwnedBlocks(li) {
			d := blockField(a, li, bc).MaxAbsDiff(blockField(b, li, bc))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

func ownershipEqual(a, b *grid.Hierarchy) bool {
	for li := range a.Levels {
		for i := range a.Levels[li].Owned {
			if a.Levels[li].Owned[i] != b.Levels[li].Owned[i] {
				return false
			}
		}
	}
	return true
}

func TestRoundTripAllArrangements(t *testing.T) {
	h := amrHierarchy(t, 64, 1)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	for _, arr := range []Arrangement{ArrangeLinear, ArrangeStack, ArrangeTAC, ArrangeZOrder1D} {
		opt := Options{EB: eb, Compressor: SZ3, Arrangement: arr}
		c, err := CompressHierarchy(h, opt)
		if err != nil {
			t.Fatalf("%v: %v", arr, err)
		}
		g, err := Decompress(c.Blob)
		if err != nil {
			t.Fatalf("%v: %v", arr, err)
		}
		if !ownershipEqual(h, g) {
			t.Fatalf("%v: ownership not preserved", arr)
		}
		if d := maxLevelError(h, g); d > eb*(1+1e-12) {
			t.Fatalf("%v: max error %g exceeds %g", arr, d, eb)
		}
	}
}

func TestRoundTripAllCompressors(t *testing.T) {
	h := amrHierarchy(t, 64, 2)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	for _, comp := range []Compressor{SZ3, SZ2, ZFP} {
		opt := Options{EB: eb, Compressor: comp, Arrangement: ArrangeLinear}
		c, err := CompressHierarchy(h, opt)
		if err != nil {
			t.Fatalf("%v: %v", comp, err)
		}
		g, err := Decompress(c.Blob)
		if err != nil {
			t.Fatalf("%v: %v", comp, err)
		}
		if d := maxLevelError(h, g); d > eb*(1+1e-12) {
			t.Fatalf("%v: max error %g exceeds %g", comp, d, eb)
		}
	}
}

func TestSZ3MRPresetRoundTripAndBound(t *testing.T) {
	h := amrHierarchy(t, 64, 3)
	eb := h.Levels[0].Data.ValueRange() * 5e-4
	c, err := CompressHierarchy(h, SZ3MROptions(eb))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(c.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxLevelError(h, g); d > eb*(1+1e-12) {
		t.Fatalf("SZ3MR: max error %g exceeds %g", d, eb)
	}
	if c.Ratio(h) < 2 {
		t.Fatalf("SZ3MR ratio %.2f implausibly low", c.Ratio(h))
	}
}

func TestPaddingOnlyAppliedWhenUnitAbove4(t *testing.T) {
	// blockB=16, 3 levels → unit sizes 16, 8, 4. Padding must apply to the
	// first two only.
	f := synth.Generate(synth.RT, 64, 4)
	h, err := grid.BuildAMR(f, 16, []float64{0.3, 0.4, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(h, SZ3MROptions(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if !p.levels[0].padded || !p.levels[1].padded {
		t.Fatal("levels with u>4 should be padded")
	}
	if p.levels[2].padded {
		t.Fatal("u=4 level must not be padded (overhead rule)")
	}
	// Padded shape is (u+1)×(u+1)×L.
	if p.levels[0].merged.Nx != 17 || p.levels[0].merged.Ny != 17 {
		t.Fatalf("padded shape %v", p.levels[0].merged)
	}
	// Round trip still exact within bound.
	c, err := p.Compress()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(c.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxLevelError(h, g); d > 1e-3*(1+1e-12) {
		t.Fatalf("3-level padded round trip error %g", d)
	}
}

func TestAdaptiveDataFromROI(t *testing.T) {
	f := synth.Generate(synth.WarpX, 64, 5)
	h, err := roi.Convert(f, roi.Options{BlockB: 16, TopFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	eb := f.ValueRange() * 1e-3
	c, err := CompressHierarchy(h, SZ3MROptions(eb))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(c.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxLevelError(h, g); d > eb*(1+1e-12) {
		t.Fatalf("adaptive data error %g exceeds %g", d, eb)
	}
}

func TestPadImprovesCompressionAtSameEB(t *testing.T) {
	// The headline mechanism: padding should improve rate-distortion. At a
	// fixed error bound it should not cost much size and typically helps on
	// smooth data; we assert the effect direction on PSNR-per-byte by
	// comparing sizes with bounded tolerance, then assert strictly that
	// pad+eb beats the stack (AMRIC) arrangement on this dataset.
	f := synth.Generate(synth.Nyx, 64, 6)
	h, err := grid.BuildAMR(f, 16, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	eb := f.ValueRange() * 2e-3
	ours, err := CompressHierarchy(h, SZ3MROptions(eb))
	if err != nil {
		t.Fatal(err)
	}
	amric, err := CompressHierarchy(h, AMRICSZ3Options(eb))
	if err != nil {
		t.Fatal(err)
	}
	if float64(ours.Size()) > 1.15*float64(amric.Size()) {
		t.Fatalf("SZ3MR size %d much worse than AMRIC %d at same eb", ours.Size(), amric.Size())
	}
}

func TestEmptyLevelHandled(t *testing.T) {
	f := synth.Generate(synth.Nyx, 32, 7)
	h, err := grid.BuildAMR(f, 8, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, arr := range []Arrangement{ArrangeLinear, ArrangeStack, ArrangeTAC, ArrangeZOrder1D} {
		c, err := CompressHierarchy(h, Options{EB: 0.01, Arrangement: arr})
		if err != nil {
			t.Fatalf("%v: %v", arr, err)
		}
		g, err := Decompress(c.Blob)
		if err != nil {
			t.Fatalf("%v: %v", arr, err)
		}
		if d := maxLevelError(h, g); d > 0.01*(1+1e-12) {
			t.Fatalf("%v: error %g", arr, d)
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	h := amrHierarchy(t, 32, 8)
	if _, err := CompressHierarchy(h, Options{EB: 0}); err == nil {
		t.Fatal("zero eb accepted")
	}
	if _, err := CompressHierarchy(h, Options{EB: math.NaN()}); err == nil {
		t.Fatal("NaN eb accepted")
	}
	// A bound set after preparation is checked the same way, and a
	// prepared input whose bound was never set does not compress.
	srcs := make([]layout.Source, len(h.Levels))
	for li := range srcs {
		srcs[li] = layout.LevelSource(h, li)
	}
	p, err := PrepareSources(h.Nx, h.Ny, h.Nz, h.BlockB, srcs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetEB(math.NaN()); err == nil {
		t.Fatal("SetEB(NaN) accepted")
	}
	if _, err := p.Compress(); err == nil {
		t.Fatal("a prepared input with no bound compressed")
	}
	if _, err := Decompress([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	c, err := CompressHierarchy(h, Options{EB: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(c.Blob[:20]); err == nil {
		t.Fatal("truncated container accepted")
	}
}

// TestOwnershipMustPartitionTheGrid: a hierarchy in which a unit block is
// owned by no level, or by two, does not compress — in a merged and in the
// TAC arrangement — so no write produces a container whose index leaves a
// block unclaimed or claims one twice.
func TestOwnershipMustPartitionTheGrid(t *testing.T) {
	// flip toggles block 0 in the first level whose mask holds from: its
	// owner (leaving it unowned) or a level not owning it (owning it twice).
	for name, from := range map[string]bool{"unowned": true, "owned twice": false} {
		for _, arr := range []Arrangement{ArrangeLinear, ArrangeTAC} {
			h := amrHierarchy(t, 32, 8)
			for _, lv := range h.Levels {
				if lv.Owned[0] == from {
					lv.Owned[0] = !from
					break
				}
			}
			if _, err := CompressHierarchy(h, Options{EB: 1e-3, Arrangement: arr}); err == nil {
				t.Errorf("block 0 %s, arrangement %d: compressed", name, arr)
			}
		}
	}
}

func TestLevelBytesAccounting(t *testing.T) {
	h := amrHierarchy(t, 64, 9)
	c, err := CompressHierarchy(h, SZ3MROptions(h.Levels[0].Data.ValueRange()*1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.LevelBytes) != 2 {
		t.Fatalf("LevelBytes = %v", c.LevelBytes)
	}
	sum := 0
	for _, b := range c.LevelBytes {
		if b <= 0 {
			t.Fatalf("level with zero compressed bytes: %v", c.LevelBytes)
		}
		sum += b
	}
	if sum > c.Size() {
		t.Fatalf("level bytes %d exceed container %d", sum, c.Size())
	}
}

func TestOptionStringers(t *testing.T) {
	if SZ3.String() != "SZ3" || ZFP.String() != "ZFP" {
		t.Fatal("compressor stringer broken")
	}
	if ArrangeLinear.String() != "linear" || ArrangeTAC.String() != "tac" {
		t.Fatal("arrangement stringer broken")
	}
}

func TestWorkersByteIdenticalContainers(t *testing.T) {
	// The worker pool must never change the serialized container: Workers=1
	// and Workers=N are required to produce byte-identical blobs for every
	// arrangement, and decoding with any worker count must reconstruct the
	// same hierarchy.
	h := amrHierarchy(t, 64, 21)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	for _, arr := range []Arrangement{ArrangeLinear, ArrangeStack, ArrangeTAC, ArrangeZOrder1D} {
		serial := Options{EB: eb, Arrangement: arr, Workers: 1}
		c1, err := CompressHierarchy(h, serial)
		if err != nil {
			t.Fatalf("%v workers=1: %v", arr, err)
		}
		for _, workers := range []int{2, 8} {
			opt := serial
			opt.Workers = workers
			cn, err := CompressHierarchy(h, opt)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", arr, workers, err)
			}
			if !bytes.Equal(c1.Blob, cn.Blob) {
				t.Fatalf("%v: workers=1 and workers=%d containers differ (%d vs %d bytes)",
					arr, workers, len(c1.Blob), len(cn.Blob))
			}
		}
		g1, err := DecompressWorkers(c1.Blob, 1)
		if err != nil {
			t.Fatalf("%v decode workers=1: %v", arr, err)
		}
		for _, workers := range []int{8, -3} { // negative must clamp to serial, not hang
			gn, err := DecompressWorkers(c1.Blob, workers)
			if err != nil {
				t.Fatalf("%v decode workers=%d: %v", arr, workers, err)
			}
			if !ownershipEqual(g1, gn) || maxLevelError(g1, gn) != 0 {
				t.Fatalf("%v: decode differs between worker counts", arr)
			}
		}
	}
}

func TestSZ2BlockSizeLargeHeaderRoundTrip(t *testing.T) {
	// v1 wrote SZ2BlockSize as one byte, so 256 wrapped to 0 and a
	// round-trip decoded with the wrong block size. v2 stores a uvarint.
	h := amrHierarchy(t, 64, 22)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	for _, bs := range []int{200, 256, 300, 1 << 20} {
		opt := Options{EB: eb, Compressor: SZ2, SZ2BlockSize: bs}
		c, err := CompressHierarchy(h, opt)
		if err != nil {
			t.Fatalf("bs=%d: %v", bs, err)
		}
		parsed, err := parseContainer(c.Blob)
		if err != nil {
			t.Fatalf("bs=%d: %v", bs, err)
		}
		if c.Blob[4] != containerVersion {
			t.Fatalf("bs=%d: container version %d", bs, c.Blob[4])
		}
		if parsed.Opts.SZ2Block != bs {
			t.Fatalf("bs=%d: header round-tripped to %d", bs, parsed.Opts.SZ2Block)
		}
		g, err := Decompress(c.Blob)
		if err != nil {
			t.Fatalf("bs=%d: %v", bs, err)
		}
		if d := maxLevelError(h, g); d > eb*(1+1e-12) {
			t.Fatalf("bs=%d: max error %g exceeds %g", bs, d, eb)
		}
	}
	if _, err := CompressHierarchy(h, Options{EB: eb, Compressor: SZ2, SZ2BlockSize: -4}); err == nil {
		t.Fatal("negative SZ2 block size accepted")
	}
	if _, err := CompressHierarchy(h, Options{EB: eb, Compressor: SZ2, SZ2BlockSize: 1 << 40}); err == nil {
		t.Fatal("absurd SZ2 block size accepted")
	}
}

func TestOverflowingBlockCountRejectedOnRead(t *testing.T) {
	// A per-level block-count uvarint ≥ 2^63 wraps negative as int; the
	// guard must compare unsigned and error rather than panic in make().
	c, err := CompressHierarchy(corruptionHierarchyForOverflow(t), Options{EB: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	blob := stripFooter(t, c.Blob)
	// Locate the first level's block-count uvarint: it follows the fixed
	// header (5+5+1 bytes + 3 float64s) and 5 dimension uvarints.
	off := 4 + 1 + 5 + 1 + 1 + 3*8
	for i := 0; i < 5; i++ {
		_, n := binary.Uvarint(blob[off:])
		off += n
	}
	crafted := append(append([]byte(nil), blob[:off]...), binary.AppendUvarint(nil, 1<<63)...)
	crafted = append(crafted, blob[off:]...)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("overflowing block count panicked: %v", r)
		}
	}()
	if _, err := Decompress(crafted); err == nil {
		t.Fatal("overflowing block count accepted")
	}
}

func TestOverflowingBoxCountRejectedOnRead(t *testing.T) {
	// The TAC box count needs the same unsigned guard as the block count:
	// a wrapped-negative count previously skipped all boxes and misparsed
	// the rest of the container without error.
	h := corruptionHierarchyForOverflow(t)
	c, err := CompressHierarchy(h, Options{EB: 0.01, Arrangement: ArrangeTAC})
	if err != nil {
		t.Fatal(err)
	}
	blob := stripFooter(t, c.Blob)
	// Walk to level 0's box count: fixed header, 5 dim uvarints, block
	// count + that many varint deltas, padded byte.
	off := 4 + 1 + 5 + 1 + 1 + 3*8
	skipUv := func() uint64 {
		v, n := binary.Uvarint(blob[off:])
		off += n
		return v
	}
	for i := 0; i < 5; i++ {
		skipUv()
	}
	nBlocks := skipUv()
	for i := uint64(0); i < nBlocks; i++ {
		_, n := binary.Varint(blob[off:])
		off += n
	}
	off++ // padded flag
	crafted := append(append([]byte(nil), blob[:off]...), binary.AppendUvarint(nil, 1<<63)...)
	crafted = append(crafted, blob[off:]...)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("overflowing box count panicked: %v", r)
		}
	}()
	if _, err := Decompress(crafted); err == nil {
		t.Fatal("overflowing box count accepted")
	}
}

// stripFooter returns a copy of a container's body alone. A crafted header
// under an intact footer is never read — the footer answers — so the
// header-rejection tests cut the footer off to keep reaching parseContainer.
func stripFooter(t testing.TB, blob []byte) []byte {
	t.Helper()
	body, ok := index.Locate(blob)
	if !ok {
		t.Fatal("container has no index footer")
	}
	return append([]byte(nil), blob[:body]...)
}

func corruptionHierarchyForOverflow(t *testing.T) *grid.Hierarchy {
	t.Helper()
	f := synth.Generate(synth.Nyx, 32, 30)
	h, err := grid.BuildAMR(f, 8, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestImplausibleSZ2BlockSizeRejectedOnRead(t *testing.T) {
	// Hand-craft a v2 header whose SZ2BlockSize uvarint is absurdly large:
	// the header scan must reject it rather than wrap or pass it through.
	blob := []byte("MRWF")
	blob = append(blob, 2, 0, 0, 0, 0, 0) // version + 5 option bytes
	blob = binary.AppendUvarint(blob, 1<<40)
	blob = append(blob, make([]byte, 40)...) // interp byte + padding past the min-length check
	if _, err := Decompress(blob); err == nil {
		t.Fatal("implausible SZ2 block size accepted")
	}
	// Version 1 stored the block size in a single byte, and no reader reads
	// that body any more: the v2 golden relabelled as version 1 fails on its
	// version byte, never decodes.
	v2, err := os.ReadFile(filepath.Join("testdata", "golden-tac-sz3.mrc"))
	if err != nil {
		t.Fatal(err)
	}
	v2[4] = 1
	if _, err := Decompress(v2); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("version-1 body: got %v, want the version check's error", err)
	}
}

// TestUnknownArrangementRejected: an arrangement byte that names no layout
// is refused on write, and on read by the header check itself, before any
// stream is decoded — here in a footerless linear SZ2 container, the one
// the body scan alone describes.
func TestUnknownArrangementRejected(t *testing.T) {
	h := amrHierarchy(t, 32, 8)
	bad := ArrangeZOrder1D + 1
	if _, err := CompressHierarchy(h, Options{EB: 1e-3, Arrangement: bad}); err == nil {
		t.Fatalf("arrangement %v accepted on write", bad)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden-linear-sz2-v3.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := index.Locate(golden)
	if !ok {
		t.Fatal("fixture has no index footer")
	}
	blob := bytes.Clone(golden[:body])
	if _, err := Decompress(blob); err != nil {
		t.Fatalf("footerless fixture: %v", err)
	}
	blob[5+1] = byte(bad) // magic, version, compressor, then the arrangement
	_, err = Decompress(blob)
	if err == nil || !strings.Contains(err.Error(), "header arrangement") {
		t.Fatalf("arrangement byte %d: got %v, want the header check's error", bad, err)
	}
}

func TestAdaptiveEBDefaultsApplied(t *testing.T) {
	o := (&Options{EB: 1}).withDefaults()
	if o.Alpha != 2.25 || o.Beta != 8 {
		t.Fatalf("defaults alpha=%g beta=%g", o.Alpha, o.Beta)
	}
	if o.SZ2BlockSize != 4 {
		t.Fatalf("default SZ2 block size %d", o.SZ2BlockSize)
	}
	if math.Abs(o.EB-1) > 0 {
		t.Fatal("EB clobbered")
	}
}
