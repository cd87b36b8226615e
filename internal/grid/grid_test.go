package grid

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/synth"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(32, 32, 32, 7, 1); err == nil {
		t.Fatal("non-power-of-two blockB accepted")
	}
	if _, err := New(32, 32, 32, 4, 1); err == nil {
		t.Fatal("blockB=4 accepted (must be >4)")
	}
	if _, err := New(30, 32, 32, 8, 1); err == nil {
		t.Fatal("non-multiple dims accepted")
	}
	if _, err := New(32, 32, 32, 8, 4); err == nil {
		t.Fatal("too-deep hierarchy accepted (8>>3 < 2)")
	}
	h, err := New(32, 32, 32, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) != 2 || h.Levels[1].Scale != 2 {
		t.Fatalf("hierarchy misbuilt: %+v", h)
	}
}

// fromUniform wraps a uniform field as a single-level hierarchy owning
// every block.
func fromUniform(f *field.Field, blockB int) (*Hierarchy, error) {
	h, err := New(f.Nx, f.Ny, f.Nz, blockB, 1)
	if err != nil {
		return nil, err
	}
	copy(h.Levels[0].Data.Data, f.Data)
	for i := range h.Levels[0].Owned {
		h.Levels[0].Owned[i] = true
	}
	return h, nil
}

func TestFromUniformOwnsEverything(t *testing.T) {
	f := synth.Generate(synth.S3D, 16, 1)
	h, err := fromUniform(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := h.Density(0); d != 1 {
		t.Fatalf("density = %v, want 1", d)
	}
	if !h.Flatten().Equal(f) {
		t.Fatal("flatten of uniform hierarchy must be exact")
	}
}

func TestSetBlockFromFineAndValidate(t *testing.T) {
	f := synth.Generate(synth.Nyx, 32, 2)
	h, err := New(32, 32, 32, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	nbx, nby, nbz := h.NumBlocks()
	if nbx != 4 || nby != 4 || nbz != 4 {
		t.Fatalf("block grid %dx%dx%d", nbx, nby, nbz)
	}
	for bz := 0; bz < nbz; bz++ {
		for by := 0; by < nby; by++ {
			for bx := 0; bx < nbx; bx++ {
				level := (bx + by + bz) % 2
				h.SetBlockFromFine(level, bx, by, bz, f)
			}
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if d0 := h.Density(0); math.Abs(d0-0.5) > 0.01 {
		t.Fatalf("level 0 density %v, want ~0.5", d0)
	}
	// Fine-owned block data must match the source exactly.
	b := h.Levels[0].Data.SubBlock(0, 0, 0, 8, 8, 8)
	want := f.SubBlock(0, 0, 0, 8, 8, 8)
	if !b.Equal(want) {
		t.Fatal("fine block data mismatch")
	}
}

func TestPayloadAccounting(t *testing.T) {
	f := synth.Generate(synth.Nyx, 32, 3)
	h, err := BuildAMR(f, 8, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	// 64 blocks: 16 fine at 512 samples, 48 coarse at 64 samples.
	want := 16*512 + 48*64
	if got := h.PayloadSamples(); got != want {
		t.Fatalf("payload = %d, want %d", got, want)
	}
	if h.PayloadBytes() != want*8 {
		t.Fatal("PayloadBytes inconsistent")
	}
}

func TestBuildAMRRefinesHighRange(t *testing.T) {
	// Nyx halos concentrate range; the finest level should capture blocks
	// with higher mean range than the coarse level.
	f := synth.Generate(synth.Nyx, 32, 4)
	h, err := BuildAMR(f, 8, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	rangeOf := func(level int) float64 {
		sum, n := 0.0, 0
		for _, bc := range h.OwnedBlocks(level) {
			b := f.SubBlock(bc[0]*8, bc[1]*8, bc[2]*8, 8, 8, 8)
			sum += b.ValueRange()
			n++
		}
		return sum / float64(n)
	}
	if rangeOf(0) <= rangeOf(1) {
		t.Fatalf("fine blocks should have higher range: %g vs %g", rangeOf(0), rangeOf(1))
	}
}

func TestBuildAMRFractionValidation(t *testing.T) {
	f := field.New(16, 16, 16)
	if _, err := BuildAMR(f, 8, []float64{0.5, 0.2}); err == nil {
		t.Fatal("fractions not summing to 1 accepted")
	}
	if _, err := BuildAMR(f, 8, []float64{-0.5, 1.5}); err == nil {
		t.Fatal("negative fraction accepted")
	}
}

func TestFlattenReconstructionQuality(t *testing.T) {
	// Flattening an AMR hierarchy built from smooth data should be close to
	// the original: exact on fine blocks, interpolated on coarse ones.
	f := synth.Generate(synth.RT, 32, 5)
	h, err := BuildAMR(f, 8, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	g := h.Flatten()
	// Fine blocks exact.
	for _, bc := range h.OwnedBlocks(0) {
		a := f.SubBlock(bc[0]*8, bc[1]*8, bc[2]*8, 8, 8, 8)
		b := g.SubBlock(bc[0]*8, bc[1]*8, bc[2]*8, 8, 8, 8)
		if !a.Equal(b) {
			t.Fatal("fine block not preserved exactly in Flatten")
		}
	}
	// Global error bounded: RT range is ~2, coarse interpolation of smooth
	// regions should stay well under that.
	if d := f.MaxAbsDiff(g); d > f.ValueRange() {
		t.Fatalf("flatten error %g too large", d)
	}
}

func TestOwnedBlocksDeterministicOrder(t *testing.T) {
	f := synth.Generate(synth.Nyx, 32, 6)
	h, err := BuildAMR(f, 8, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	a := h.OwnedBlocks(0)
	b := h.OwnedBlocks(0)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("inconsistent owned blocks")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("OwnedBlocks order not deterministic")
		}
	}
	// Raster order: flat indices strictly increasing.
	prev := -1
	for _, bc := range a {
		idx := h.BlockIndex(bc[0], bc[1], bc[2])
		if idx <= prev {
			t.Fatal("OwnedBlocks not in raster order")
		}
		prev = idx
	}
}

func TestCloneIndependence(t *testing.T) {
	f := synth.Generate(synth.Nyx, 16, 7)
	h, err := BuildAMR(f, 8, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	c := h.Clone()
	c.Levels[0].Data.Data[0] = 1e30
	c.Levels[0].Owned[0] = !c.Levels[0].Owned[0]
	if h.Levels[0].Data.Data[0] == 1e30 {
		t.Fatal("Clone shares level data")
	}
	if h.Levels[0].Owned[0] == c.Levels[0].Owned[0] {
		t.Fatal("Clone shares ownership")
	}
}

func TestUnitBlockSize(t *testing.T) {
	h, err := New(64, 64, 64, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for l, want := range []int{16, 8, 4} {
		if got := h.UnitBlockSize(l); got != want {
			t.Fatalf("UnitBlockSize(%d) = %d, want %d", l, got, want)
		}
	}
}
