package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/layout"
	"repro/internal/raceflag"
)

// sampleIndex builds a representative two-level TAC index over a fake body
// of the given length: level 0 two boxes, level 1 one box, which between
// them claim every unit block.
func sampleIndex() (*Index, []byte) {
	body := bytes.Repeat([]byte{0xAB}, 600)
	ix := &Index{
		Opts: Opts{
			Compressor: 0, Arrangement: 2, Pad: true, PadKind: 1, AdaptiveEB: true,
			SZ2Block: 260, Interp: 1, EB: 1e-3, Alpha: 2.25, Beta: 8,
		},
		Nx: 32, Ny: 32, Nz: 64, BlockB: 16,
	}
	ix.Streams = []Stream{
		{Level: 0, Box: 0, Geom: layout.Box{X0: 0, Y0: 0, Z0: 0, WX: 2, WY: 2, WZ: 2}, Compressor: 0, Offset: 100, Len: 150, RawLen: 8 * 16 * 16 * 16 * 8},
		{Level: 0, Box: 1, Geom: layout.Box{X0: 0, Y0: 0, Z0: 2, WX: 2, WY: 2, WZ: 1}, Compressor: 0, Offset: 250, Len: 100, RawLen: 4 * 16 * 16 * 16 * 8},
		{Level: 1, Box: 0, Geom: layout.Box{X0: 0, Y0: 0, Z0: 3, WX: 2, WY: 2, WZ: 1}, Compressor: 0, Offset: 380, Len: 200, RawLen: 4 * 8 * 8 * 8 * 8},
	}
	ix.Levels = []Level{
		{Blocks: [][3]int{{0, 0, 0}, {1, 0, 0}, {0, 1, 2}, {0, 1, 3}}, Streams: []int{0, 1}},
		{Blocks: [][3]int{{1, 1, 1}, {0, 0, 3}}, Padded: true, Streams: []int{2}},
	}
	return ix, body
}

func TestFooterRoundTrip(t *testing.T) {
	ix, body := sampleIndex()
	blob := ix.AppendFooter(append([]byte(nil), body...))
	if !bytes.Equal(blob[:len(body)], body) {
		t.Fatal("AppendFooter modified the body")
	}

	bodyLen, ok := Locate(blob)
	if !ok || bodyLen != len(body) {
		t.Fatalf("Locate = (%d, %v), want (%d, true)", bodyLen, ok, len(body))
	}

	got, err := ReadFrom(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if got.SectionCRC == 0 {
		t.Fatal("ReadFrom left SectionCRC unset")
	}
	got.SectionCRC = 0 // the in-memory original was never serialized
	if !reflect.DeepEqual(got, ix) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ix)
	}
}

func TestLevelAccessors(t *testing.T) {
	ix, _ := sampleIndex()
	if n := ix.NumLevels(); n != 2 {
		t.Fatalf("NumLevels = %d", n)
	}
	if nx, ny, nz := ix.LevelDims(1); nx != 16 || ny != 16 || nz != 32 {
		t.Fatalf("LevelDims(1) = %dx%dx%d", nx, ny, nz)
	}
	if u := ix.UnitBlockSize(1); u != 8 {
		t.Fatalf("UnitBlockSize(1) = %d", u)
	}
	if b := ix.CompressedBytes(0); b != 250 {
		t.Fatalf("CompressedBytes(0) = %d", b)
	}
}

func TestNoFooter(t *testing.T) {
	for _, blob := range [][]byte{nil, []byte("short"), bytes.Repeat([]byte{7}, 100)} {
		if _, ok := Locate(blob); ok {
			t.Fatalf("Locate accepted %d unindexed bytes", len(blob))
		}
		_, err := ReadFrom(bytes.NewReader(blob), int64(len(blob)))
		if !errors.Is(err, ErrNoIndex) {
			t.Fatalf("ReadFrom(%d unindexed bytes) = %v, want ErrNoIndex", len(blob), err)
		}
	}
}

func TestCorruptFooterRejected(t *testing.T) {
	ix, body := sampleIndex()
	blob := ix.AppendFooter(append([]byte(nil), body...))

	// A flipped bit anywhere in the section fails the CRC.
	mut := append([]byte(nil), blob...)
	mut[len(body)+3] ^= 0x40
	if _, ok := Locate(mut); ok {
		t.Fatal("Locate accepted a CRC-corrupt footer")
	}
	if _, err := ReadFrom(bytes.NewReader(mut), int64(len(mut))); err == nil {
		t.Fatal("ReadFrom accepted a CRC-corrupt footer")
	}

	// A truncated footer is indistinguishable from no footer.
	for _, cut := range []int{1, TrailerLen - 1, TrailerLen, TrailerLen + 5} {
		trunc := blob[:len(blob)-cut]
		if _, err := ReadFrom(bytes.NewReader(trunc), int64(len(trunc))); err == nil {
			t.Fatalf("ReadFrom accepted footer truncated by %d bytes", cut)
		}
	}

	// A section-length field pointing past the start of the container.
	huge := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(huge[len(huge)-12:], 1<<40)
	if _, err := ReadFrom(bytes.NewReader(huge), int64(len(huge))); err == nil {
		t.Fatal("ReadFrom accepted an oversized section length")
	}
}

// TestParseRejectsRawLenMismatch: a stream whose raw length is 8 bytes off
// what its box or its level's block list implies is rejected.
func TestParseRejectsRawLenMismatch(t *testing.T) {
	for si := range 3 {
		for _, d := range []int64{-8, 8} {
			ix, body := sampleIndex()
			ix.Streams[si].RawLen += d
			blob := ix.AppendFooter(append([]byte(nil), body...))
			if _, err := ReadFrom(bytes.NewReader(blob), int64(len(blob))); err == nil {
				t.Errorf("stream %d: raw length off by %d accepted", si, d)
			}
		}
	}
}

func TestParseRejectsStreamPastEOF(t *testing.T) {
	ix, body := sampleIndex()
	ix.Streams[2].Len = 1 << 30 // stream claims to extend far past the body
	blob := ix.AppendFooter(append([]byte(nil), body...))
	if _, err := ReadFrom(bytes.NewReader(blob), int64(len(blob))); err == nil {
		t.Fatal("stream extending past EOF accepted")
	}
}

func TestParseRejectsImplausibleHeaders(t *testing.T) {
	_, body := sampleIndex()
	cases := []struct {
		name string
		mut  func(*Index)
	}{
		{"arrangement naming no layout", func(ix *Index) { ix.Opts.Arrangement = 4 }},
		{"zero dim", func(ix *Index) { ix.Nx = 0 }},
		{"non-power-of-two block", func(ix *Index) { ix.BlockB = 12 }},
		{"dim not multiple of block", func(ix *Index) { ix.Nx = 40 }},
		{"block index out of range", func(ix *Index) { ix.Levels[0].Blocks[0] = [3]int{5, 5, 5} }},
		{"box out of domain", func(ix *Index) { ix.Streams[0].Geom.WX = 9 }},
	}
	for _, tc := range cases {
		m, _ := sampleIndex()
		tc.mut(m)
		blob := m.AppendFooter(append([]byte(nil), body...))
		if _, err := ReadFrom(bytes.NewReader(blob), int64(len(blob))); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// hollowSection is a 48-byte index section whose only level claims every
// block of a 2048³ domain at B = 8 — 2²⁴ of them — with no byte behind the
// count.
func hollowSection() []byte {
	sec := append([]byte(Magic), footerVersionStreamCRC)
	sec = append(sec, 0, 0, 0, 0, 0) // options
	sec = binary.AppendUvarint(sec, 0)
	sec = append(sec, 0)                   // interpolant
	sec = append(sec, make([]byte, 24)...) // EB, Alpha, Beta
	for _, v := range []uint64{2048, 2048, 2048, 8, 1, 1 << 24} {
		sec = binary.AppendUvarint(sec, v)
	}
	return sec
}

// allocatedBytes returns the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParseBoundsBlockCountByBytes: a block count the section has no bytes
// for must be rejected before the block list is allocated — 2²⁴ blocks would
// cost 400 MB, paid again by every open of the container.
func TestParseBoundsBlockCountByBytes(t *testing.T) {
	sec := hollowSection()
	if len(sec) != 48 {
		t.Fatalf("section is %d bytes, want 48", len(sec))
	}
	var err error
	n := allocatedBytes(func() { _, err = Parse(sec, 0) })
	if err == nil {
		t.Fatal("block count with no bytes behind it accepted")
	}
	if n > 1<<20 {
		t.Fatalf("Parse allocated %d bytes rejecting a 48-byte section", n)
	}
}

// TestIndexAllocBudget pins the allocations of reading each committed
// golden's footer: the trailer, the section, the Index and its level and
// stream tables. The footerless version-2 golden costs only the trailer
// read.
func TestIndexAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	budgets := map[string]float64{
		"golden-linear-sz2-v3.mrw":      12,
		"golden-linear-zfp-v3.mrw":      12,
		"golden-mixed-sz3-flate-v4.mrw": 12,
		"golden-stack-sz3-v3.mrw":       12,
		"golden-zorder1d-sz3-v3.mrw":    12,
		"golden-tac-sz3-v3.mrw":         9,
		"golden-tac-sz3.mrc":            2,
	}
	for name, budget := range budgets {
		blob, err := os.ReadFile(filepath.Join("..", "core", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(blob)
		if n := testing.AllocsPerRun(20, func() {
			ReadFrom(r, int64(len(blob)))
		}); n > budget {
			t.Errorf("%s: ReadFrom made %v allocations, budget %v", name, n, budget)
		}
	}
}

// claimFixtures are index builders whose streams claim every unit block of
// a grid of the given edge (in blocks) exactly once: two merged levels
// splitting the blocks in raster order, or two TAC boxes splitting the grid
// along z.
var claimFixtures = []struct {
	name  string
	index func(nb int) *Index
}{
	{"merged", func(nb int) *Index {
		ix := &Index{
			Nx: 16 * nb, Ny: 16 * nb, Nz: 16 * nb, BlockB: 16,
			Levels: make([]Level, 2),
			Streams: []Stream{
				{Level: 0, Box: -1, Offset: 100, Len: 10},
				{Level: 1, Box: -1, Offset: 200, Len: 10},
			},
		}
		for flat := 0; flat < nb*nb*nb; flat++ {
			lv := &ix.Levels[flat%2]
			lv.Blocks = append(lv.Blocks, [3]int{flat % nb, (flat / nb) % nb, flat / (nb * nb)})
		}
		ix.Levels[0].Streams, ix.Levels[1].Streams = []int{0}, []int{1}
		return withRawLens(ix)
	}},
	{"tac", func(nb int) *Index {
		return withRawLens(&Index{
			Opts: Opts{Arrangement: byte(layout.TAC)},
			Nx:   16 * nb, Ny: 16 * nb, Nz: 16 * nb, BlockB: 16,
			Levels: []Level{{Streams: []int{0, 1}}, {}},
			Streams: []Stream{
				{Level: 0, Box: 0, Geom: layout.Box{WX: nb, WY: nb, WZ: nb / 2}, Offset: 100, Len: 10},
				{Level: 0, Box: 1, Geom: layout.Box{Z0: nb / 2, WX: nb, WY: nb, WZ: nb - nb/2}, Offset: 200, Len: 10},
			},
		})
	}},
}

// TestParseRejectsStreamKindForArrangement: a stream record no writer
// produces — a merged (Box −1) stream in a TAC container, or a box stream in
// a merged one — is rejected, though its raw length and the block claims
// add up.
func TestParseRejectsStreamKindForArrangement(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fixture int
		mut     func(ix *Index)
	}{
		{"merged stream in a TAC container", 1, func(ix *Index) {
			ix.Streams = append(ix.Streams, Stream{Level: 1, Box: -1, Offset: 300, Len: 10})
			ix.Levels[1].Streams = []int{2}
		}},
		{"box stream in a merged container", 0, func(ix *Index) {
			// The box claims the block its level's list no longer does.
			lv := &ix.Levels[1]
			bc := lv.Blocks[0]
			lv.Blocks = lv.Blocks[1:]
			ix.Streams[1].Box, ix.Streams[1].Geom = 0, layout.Box{X0: bc[0], Y0: bc[1], Z0: bc[2], WX: 1, WY: 1, WZ: 1}
		}},
	} {
		ix := claimFixtures[tc.fixture].index(4)
		tc.mut(ix)
		blob := withRawLens(ix).AppendFooter(make([]byte, 600))
		if _, err := ReadFrom(bytes.NewReader(blob), int64(len(blob))); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// withRawLens sets the raw length of every stream of ix to what its record
// implies — its box's volume, or its level's merged array — as Parse
// requires, and returns ix.
func withRawLens(ix *Index) *Index {
	a := layout.Arrangement(ix.Opts.Arrangement)
	for i := range ix.Streams {
		s := &ix.Streams[i]
		u, lv := ix.UnitBlockSize(s.Level), ix.Levels[s.Level]
		if s.Box < 0 {
			s.RawLen = a.RawLen(u, len(lv.Blocks), lv.Padded)
		} else {
			s.RawLen = int64(s.Geom.WX*u) * int64(s.Geom.WY*u) * int64(s.Geom.WZ*u) * 8
		}
	}
	return ix
}

// claimGrids are the grid edges the claim checks run on: one whose claim
// bitset lives on the stack, and one (32³ blocks) large enough to allocate
// it.
var claimGrids = []int{4, 32}

// TestParseRejectsBlocksClaimedTwice: a unit block carried by two streams —
// twice in one merged level's block list, by two levels, or by two
// overlapping TAC boxes — is rejected, on a grid whose claim bitset lives on
// the stack and on one large enough to allocate it.
func TestParseRejectsBlocksClaimedTwice(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fixture int
		claim   func(ix *Index)
	}{
		{"one merged level", 0, func(ix *Index) { ix.Levels[0].Blocks[1] = ix.Levels[0].Blocks[0] }},
		{"two levels", 0, func(ix *Index) { ix.Levels[1].Blocks[0] = ix.Levels[0].Blocks[0] }},
		{"two TAC boxes", 1, func(ix *Index) { ix.Streams[1].Geom = ix.Streams[0].Geom }},
	} {
		for _, nb := range claimGrids {
			ix := claimFixtures[tc.fixture].index(nb)
			blob := ix.AppendFooter(make([]byte, 600))
			if _, err := ReadFrom(bytes.NewReader(blob), int64(len(blob))); err != nil {
				t.Fatalf("%s (%d³ blocks): pristine index rejected: %v", tc.name, nb, err)
			}
			tc.claim(ix)
			blob = withRawLens(ix).AppendFooter(make([]byte, 600))
			if _, err := ReadFrom(bytes.NewReader(blob), int64(len(blob))); err == nil {
				t.Fatalf("%s (%d³ blocks): a block claimed twice was accepted", tc.name, nb)
			}
		}
	}
}

// TestParseRejectsUnclaimedBlock: a unit block carried by no stream — left
// out of a merged level's block list, or of every TAC box — is rejected, so
// a parsed index always covers the whole domain.
func TestParseRejectsUnclaimedBlock(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fixture int
		drop    func(ix *Index)
	}{
		{"merged block list", 0, func(ix *Index) { ix.Levels[1].Blocks = ix.Levels[1].Blocks[1:] }},
		{"TAC box", 1, func(ix *Index) { ix.Streams[1].Geom.WZ-- }},
	} {
		for _, nb := range claimGrids {
			ix := claimFixtures[tc.fixture].index(nb)
			tc.drop(ix)
			// The raw lengths follow the dropped block, so only the claim
			// check can reject the index.
			blob := withRawLens(ix).AppendFooter(make([]byte, 600))
			if _, err := ReadFrom(bytes.NewReader(blob), int64(len(blob))); err == nil {
				t.Fatalf("%s (%d³ blocks): an unclaimed block was accepted", tc.name, nb)
			}
		}
	}
}
