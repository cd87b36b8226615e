package grid

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/field"
	"repro/internal/raceflag"
)

// refSetBlockFromFine is SetBlockFromFine as it was: copy the fine block
// out, halve it level times through fresh fields, copy it in.
func refSetBlockFromFine(h *Hierarchy, level, bx, by, bz int, fine *field.Field) {
	bi := h.BlockIndex(bx, by, bz)
	for _, lv := range h.Levels {
		lv.Owned[bi] = false
	}
	lv := h.Levels[level]
	lv.Owned[bi] = true
	b := fine.SubBlock(bx*h.BlockB, by*h.BlockB, bz*h.BlockB, h.BlockB, h.BlockB, h.BlockB)
	for s := 1; s < lv.Scale; s <<= 1 {
		half := field.New((b.Nx+1)/2, (b.Ny+1)/2, (b.Nz+1)/2)
		field.DownsampleBlock2(half, 0, 0, 0, b, 0, 0, 0, b.Nx, b.Ny, b.Nz)
		b = half
	}
	u := h.UnitBlockSize(level)
	lv.Data.SetBlock(bx*u, by*u, bz*u, b)
}

// refBuildAMR is BuildAMR's ranking and assignment as they were: a copied
// block per range, sort.Slice on (range desc, z, y, x).
func refBuildAMR(t *testing.T, fine *field.Field, blockB int, fracs []float64) *Hierarchy {
	t.Helper()
	h, err := New(fine.Nx, fine.Ny, fine.Nz, blockB, len(fracs))
	if err != nil {
		t.Fatal(err)
	}
	nbx, nby, nbz := h.NumBlocks()
	type scored struct {
		bx, by, bz int
		rng        float64
	}
	var blocks []scored
	for bz := 0; bz < nbz; bz++ {
		for by := 0; by < nby; by++ {
			for bx := 0; bx < nbx; bx++ {
				b := fine.SubBlock(bx*blockB, by*blockB, bz*blockB, blockB, blockB, blockB)
				blocks = append(blocks, scored{bx, by, bz, b.ValueRange()})
			}
		}
	}
	sort.Slice(blocks, func(i, j int) bool {
		a, b := blocks[i], blocks[j]
		if a.rng != b.rng {
			return a.rng > b.rng
		}
		if a.bz != b.bz {
			return a.bz < b.bz
		}
		if a.by != b.by {
			return a.by < b.by
		}
		return a.bx < b.bx
	})
	start := 0
	for l := range fracs {
		count := int(fracs[l]*float64(len(blocks)) + 0.5)
		if l == len(fracs)-1 || start+count > len(blocks) {
			count = len(blocks) - start
		}
		for _, b := range blocks[start : start+count] {
			refSetBlockFromFine(h, l, b.bx, b.by, b.bz, fine)
		}
		start += count
	}
	return h
}

// nastyFine is a non-cubic fine field with mixed magnitudes, NaN, ±Inf and
// -0 samples, and several exactly tied block ranges (constant blocks).
func nastyFine(seed int64) *field.Field {
	rng := rand.New(rand.NewSource(seed))
	f := field.New(48, 32, 64)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for i := range f.Data {
		f.Data[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(10)-5))
		if rng.Intn(4096) == 0 {
			f.Data[i] = special[rng.Intn(len(special))]
		}
	}
	flat := field.New(16, 16, 16)
	for _, bc := range [][3]int{{0, 0, 0}, {2, 1, 3}, {1, 0, 2}} {
		f.SetBlock(bc[0]*16, bc[1]*16, bc[2]*16, flat)
	}
	return f
}

func hierarchiesIdentical(t *testing.T, got, want *Hierarchy) {
	t.Helper()
	for l := range want.Levels {
		g, w := got.Levels[l], want.Levels[l]
		for i := range w.Owned {
			if g.Owned[i] != w.Owned[i] {
				t.Fatalf("level %d block %d: owned %v, reference %v", l, i, g.Owned[i], w.Owned[i])
			}
		}
		for i, v := range w.Data.Data {
			if math.Float64bits(g.Data.Data[i]) != math.Float64bits(v) {
				t.Fatalf("level %d sample %d: %g, reference %g", l, i, g.Data.Data[i], v)
			}
		}
	}
}

// TestSetBlockFromFineMatchesReference covers u = 16, 8, 4, 2: the direct
// copy, the direct downsample, and the chained means through the scratch
// block (one and two intermediate halvings).
func TestSetBlockFromFineMatchesReference(t *testing.T) {
	fine := nastyFine(1)
	got, _ := New(fine.Nx, fine.Ny, fine.Nz, 16, 4)
	want, _ := New(fine.Nx, fine.Ny, fine.Nz, 16, 4)
	nbx, nby, nbz := got.NumBlocks()
	for pass := 0; pass < 2; pass++ { // second pass re-owns every block at another level
		for bz := 0; bz < nbz; bz++ {
			for by := 0; by < nby; by++ {
				for bx := 0; bx < nbx; bx++ {
					level := (bx + 2*by + 3*bz + pass) % 4
					got.SetBlockFromFine(level, bx, by, bz, fine)
					refSetBlockFromFine(want, level, bx, by, bz, fine)
				}
			}
		}
		hierarchiesIdentical(t, got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAMRMatchesReference(t *testing.T) {
	fine := nastyFine(2)
	for _, c := range []struct {
		blockB int
		fracs  []float64
	}{
		{16, []float64{0.2, 0.3, 0.5}},
		{16, []float64{0.1, 0.2, 0.3, 0.4}},
		{8, []float64{0.25, 0.75}},
	} {
		got, err := BuildAMR(fine, c.blockB, c.fracs)
		if err != nil {
			t.Fatal(err)
		}
		hierarchiesIdentical(t, got, refBuildAMR(t, fine, c.blockB, c.fracs))
	}
}

// TestFlattenCopiesFineBlocks pins Flatten's level-0 path (now a direct
// region copy) to the source bits; coarser levels still upsample.
func TestFlattenCopiesFineBlocks(t *testing.T) {
	fine := nastyFine(3)
	h, err := BuildAMR(fine, 16, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	flat := h.Flatten()
	for _, bc := range h.OwnedBlocks(0) {
		a := flat.SubBlock(bc[0]*16, bc[1]*16, bc[2]*16, 16, 16, 16)
		b := fine.SubBlock(bc[0]*16, bc[1]*16, bc[2]*16, 16, 16, 16)
		for i, v := range b.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(v) {
				t.Fatalf("block %v sample %d: %g, source %g", bc, i, a.Data[i], v)
			}
		}
	}
}

func TestSetBlockFromFineAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	fine := nastyFine(4)
	h, _ := New(fine.Nx, fine.Ny, fine.Nz, 16, 3)
	if n := testing.AllocsPerRun(10, func() {
		h.SetBlockFromFine(0, 1, 1, 1, fine)
		h.SetBlockFromFine(1, 2, 0, 3, fine)
	}); n != 0 {
		t.Fatalf("SetBlockFromFine at levels 0-1 allocates %v times per run, want 0", n)
	}
	// A deeper level allocates its scratch block once per hierarchy.
	h.SetBlockFromFine(2, 0, 0, 0, fine)
	if n := testing.AllocsPerRun(10, func() { h.SetBlockFromFine(2, 0, 1, 2, fine) }); n != 0 {
		t.Fatalf("SetBlockFromFine at level 2 allocates %v times per run after the first, want 0", n)
	}
}
