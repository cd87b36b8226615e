package layout

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/synth"
)

func testHierarchy(t *testing.T, seed int64) *grid.Hierarchy {
	t.Helper()
	f := synth.Generate(synth.Nyx, 32, seed)
	h, err := grid.BuildAMR(f, 8, []float64{0.4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func emptyLike(t *testing.T, h *grid.Hierarchy) *grid.Hierarchy {
	t.Helper()
	g, err := grid.New(h.Nx, h.Ny, h.Nz, h.BlockB, len(h.Levels))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// blockField copies unit block bc of a level out as a standalone field.
func blockField(h *grid.Hierarchy, level int, bc [3]int) *field.Field {
	u := h.UnitBlockSize(level)
	return h.Levels[level].Data.SubBlock(bc[0]*u, bc[1]*u, bc[2]*u, u, u, u)
}

func levelsEqual(a, b *grid.Hierarchy, level int) bool {
	la, lb := a.Levels[level], b.Levels[level]
	for i, o := range la.Owned {
		if o != lb.Owned[i] {
			return false
		}
	}
	for _, bc := range a.OwnedBlocks(level) {
		if !blockField(a, level, bc).Equal(blockField(b, level, bc)) {
			return false
		}
	}
	return true
}

// placedEqual reports whether every block of h's level that the level owns
// reads back identically from dst, a level array filled by a Place function.
func placedEqual(h *grid.Hierarchy, level int, dst *field.Field) bool {
	u := h.UnitBlockSize(level)
	for _, bc := range h.OwnedBlocks(level) {
		if !blockField(h, level, bc).Equal(dst.SubBlock(bc[0]*u, bc[1]*u, bc[2]*u, u, u, u)) {
			return false
		}
	}
	return true
}

func TestLinearMergeRoundTrip(t *testing.T) {
	h := testHierarchy(t, 1)
	for level := range h.Levels {
		m := LinearMerge(h, level)
		u := h.UnitBlockSize(level)
		if m.Data.Nx != u || m.Data.Ny != u || m.Data.Nz != u*len(m.Blocks) {
			t.Fatalf("level %d merged shape %v", level, m.Data)
		}
		g := emptyLike(t, h)
		if err := LinearUnmerge(m, g, level); err != nil {
			t.Fatal(err)
		}
		if !levelsEqual(h, g, level) {
			t.Fatalf("level %d linear round trip failed", level)
		}
	}
}

func TestStackMergeRoundTrip(t *testing.T) {
	h := testHierarchy(t, 2)
	for level := range h.Levels {
		m := LevelSource(h, level).Merge(Stack, false, PadLinear)
		// Cubic shape.
		if m.Data.Nx != m.Data.Ny || m.Data.Ny != m.Data.Nz {
			t.Fatalf("stack merge not cubic: %v", m.Data)
		}
		dst := emptyLike(t, h).Levels[level].Data
		if err := Place(Stack, m, dst); err != nil {
			t.Fatal(err)
		}
		if !placedEqual(h, level, dst) {
			t.Fatalf("level %d stack round trip failed", level)
		}
	}
}

func TestTACPartitionCoversExactly(t *testing.T) {
	h := testHierarchy(t, 3)
	for level := range h.Levels {
		boxes := TACPartition(h, level)
		covered := make(map[[3]int]int)
		for _, b := range boxes {
			for dz := 0; dz < b.WZ; dz++ {
				for dy := 0; dy < b.WY; dy++ {
					for dx := 0; dx < b.WX; dx++ {
						covered[[3]int{b.X0 + dx, b.Y0 + dy, b.Z0 + dz}]++
					}
				}
			}
		}
		owned := h.OwnedBlocks(level)
		if len(covered) != len(owned) {
			t.Fatalf("level %d: covered %d blocks, own %d", level, len(covered), len(owned))
		}
		for _, bc := range owned {
			if covered[bc] != 1 {
				t.Fatalf("level %d block %v covered %d times", level, bc, covered[bc])
			}
		}
	}
}

func TestTACBoxRoundTrip(t *testing.T) {
	h := testHierarchy(t, 4)
	for level := range h.Levels {
		g := emptyLike(t, h)
		for _, b := range TACPartition(h, level) {
			data := ExtractBox(h, level, b)
			if err := InsertBox(g, level, b, data); err != nil {
				t.Fatal(err)
			}
		}
		if !levelsEqual(h, g, level) {
			t.Fatalf("level %d TAC round trip failed", level)
		}
	}
}

func TestTACMergesContiguousRegions(t *testing.T) {
	// Fully owned level → a single box.
	f := synth.Generate(synth.S3D, 32, 5)
	h, err := grid.BuildAMR(f, 8, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	boxes := TACPartition(h, 0)
	if len(boxes) != 1 {
		t.Fatalf("full level should partition into 1 box, got %d", len(boxes))
	}
	b := boxes[0]
	if b.WX != 4 || b.WY != 4 || b.WZ != 4 {
		t.Fatalf("box %+v, want full 4x4x4 block grid", b)
	}
}

func TestPadXYShapesAndValues(t *testing.T) {
	f := field.New(4, 4, 8)
	for z := 0; z < 8; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				f.Set(x, y, z, float64(x)+10*float64(y))
			}
		}
	}
	g := PadXY(f, PadLinear)
	if g.Nx != 5 || g.Ny != 5 || g.Nz != 8 {
		t.Fatalf("padded shape %v", g)
	}
	// Linear data → linear extrapolation is exact: pad x value = 4.
	if got := g.At(4, 2, 3); got != 4+20 {
		t.Fatalf("x pad = %v, want 24", got)
	}
	if got := g.At(2, 4, 3); got != 2+40 {
		t.Fatalf("y pad = %v, want 42", got)
	}
	// Corner also linear.
	if got := g.At(4, 4, 3); got != 4+40 {
		t.Fatalf("corner pad = %v, want 44", got)
	}
	// Unpad restores the original exactly.
	if !UnpadXY(g).Equal(f) {
		t.Fatal("UnpadXY(PadXY(f)) != f")
	}
}

func TestPadKinds(t *testing.T) {
	f := field.New(4, 1, 1)
	copy(f.Data, []float64{1, 2, 4, 8}) // geometric: quadratic ≠ linear ≠ constant
	c := PadXY(f, PadConstant).At(4, 0, 0)
	l := PadXY(f, PadLinear).At(4, 0, 0)
	q := PadXY(f, PadQuadratic).At(4, 0, 0)
	if c != 8 {
		t.Fatalf("constant pad = %v", c)
	}
	if l != 12 { // 2*8-4
		t.Fatalf("linear pad = %v", l)
	}
	if q != 14 { // 3*8-3*4+2
		t.Fatalf("quadratic pad = %v", q)
	}
}

func TestPadOverheadFormula(t *testing.T) {
	// Overhead must match the paper's (u+1)²/u² analysis.
	for _, u := range []int{4, 8, 16} {
		f := field.New(u, u, u*5)
		g := PadXY(f, PadLinear)
		got := float64(g.Len()) / float64(f.Len())
		want := float64((u+1)*(u+1)) / float64(u*u)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("u=%d overhead %v, want %v", u, got, want)
		}
	}
}

// mortonDecode reverses MortonEncode, so TestMortonRoundTrip checks it over
// the full 21-bit range of each coordinate.
func mortonDecode(m uint64) (x, y, z uint32) {
	return compact(m), compact(m >> 1), compact(m >> 2)
}

func compact(m uint64) uint32 {
	x := m & 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x1f0000ff0000ff
	x = (x | x>>16) & 0x1f00000000ffff
	x = (x | x>>32) & 0x1fffff
	return uint32(x)
}

func TestMortonRoundTrip(t *testing.T) {
	prop := func(x, y, z uint32) bool {
		x &= 0x1fffff
		y &= 0x1fffff
		z &= 0x1fffff
		gx, gy, gz := mortonDecode(MortonEncode(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMortonOrderLocality(t *testing.T) {
	// The canonical first 8 Morton codes of the unit cube.
	want := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	got := []uint64{
		MortonEncode(0, 0, 0), MortonEncode(1, 0, 0),
		MortonEncode(0, 1, 0), MortonEncode(1, 1, 0),
		MortonEncode(0, 0, 1), MortonEncode(1, 0, 1),
		MortonEncode(0, 1, 1), MortonEncode(1, 1, 1),
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("morton[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestZOrderFlattenRoundTrip(t *testing.T) {
	h := testHierarchy(t, 6)
	for level := range h.Levels {
		m := LevelSource(h, level).Merge(ZOrder1D, false, PadLinear)
		if m.Data.Ny != 1 || m.Data.Nz != 1 {
			t.Fatalf("flattened field not 1D: %v", m.Data)
		}
		dst := emptyLike(t, h).Levels[level].Data
		if err := Place(ZOrder1D, m, dst); err != nil {
			t.Fatal(err)
		}
		if !placedEqual(h, level, dst) {
			t.Fatalf("level %d z-order round trip failed", level)
		}
	}
}

func TestEmptyLevelMerges(t *testing.T) {
	// A hierarchy where level 0 owns nothing must not crash any arrangement.
	f := synth.Generate(synth.Nyx, 16, 7)
	h, err := grid.BuildAMR(f, 8, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m := LinearMerge(h, 0); m.Data != nil {
		t.Fatal("empty level should merge to nil")
	}
	for _, a := range []Arrangement{Stack, ZOrder1D} {
		if m := LevelSource(h, 0).Merge(a, false, PadLinear); m.Data != nil {
			t.Fatalf("empty level should merge to nil under %v", a)
		}
	}
	if boxes := TACPartition(h, 0); len(boxes) != 0 {
		t.Fatal("empty level should have no boxes")
	}
}
