package layout

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/raceflag"
	"repro/internal/synth"
)

// The ref* functions are the merges, placements and PadXY as they were: one
// block copied out into a fresh field and copied in again per unit block,
// one closure call per padded sample. The strided versions are held to them
// bit for bit.

func refLinearMerge(h *grid.Hierarchy, level int) *field.Field {
	u, blocks := h.UnitBlockSize(level), h.OwnedBlocks(level)
	out := field.New(u, u, u*len(blocks))
	for i, bc := range blocks {
		out.SetBlock(0, 0, i*u, blockField(h, level, bc))
	}
	return out
}

func refStackMerge(h *grid.Hierarchy, level int) *field.Field {
	u, blocks := h.UnitBlockSize(level), h.OwnedBlocks(level)
	m := int(math.Ceil(math.Cbrt(float64(len(blocks)))))
	out := field.New(u*m, u*m, u*m)
	for slot := 0; slot < m*m*m; slot++ {
		b := blockField(h, level, blocks[min(slot, len(blocks)-1)])
		out.SetBlock(slot%m*u, slot/m%m*u, slot/(m*m)*u, b)
	}
	return out
}

func refZOrderFlatten1D(h *grid.Hierarchy, level int, blocks [][3]int) *field.Field {
	u := h.UnitBlockSize(level)
	out := field.New(u*u*u*len(blocks), 1, 1)
	for i, bc := range blocks {
		copy(out.Data[i*u*u*u:], blockField(h, level, bc).Data)
	}
	return out
}

func refLinearPlace(m *Merged, dst *field.Field) {
	u := m.U
	for i, bc := range m.Blocks {
		dst.SetBlock(bc[0]*u, bc[1]*u, bc[2]*u, m.Data.SubBlock(0, 0, i*u, u, u, u))
	}
}

func refStackPlace(m *Merged, dst *field.Field) {
	u := m.U
	mm := int(math.Ceil(math.Cbrt(float64(len(m.Blocks)))))
	for slot, bc := range m.Blocks {
		b := m.Data.SubBlock(slot%mm*u, slot/mm%mm*u, slot/(mm*mm)*u, u, u, u)
		dst.SetBlock(bc[0]*u, bc[1]*u, bc[2]*u, b)
	}
}

func refZOrderPlace1D(m *Merged, dst *field.Field) {
	u := m.U
	for i, bc := range m.Blocks {
		b := field.New(u, u, u)
		copy(b.Data, m.Data.Data[i*u*u*u:])
		dst.SetBlock(bc[0]*u, bc[1]*u, bc[2]*u, b)
	}
}

func refPadXY(f *field.Field, kind PadKind) *field.Field {
	back := func(n int, at func(int) float64) (s [3]float64) {
		for i := range s {
			s[i] = at(max(n-1-i, 0))
		}
		return s
	}
	ext := func(s [3]float64) float64 { return extrapolate(kind, s[0], s[1], s[2]) }
	g := field.New(f.Nx+1, f.Ny+1, f.Nz)
	for z := 0; z < f.Nz; z++ {
		for y := 0; y < f.Ny; y++ {
			for x := 0; x < f.Nx; x++ {
				g.Set(x, y, z, f.At(x, y, z))
			}
		}
	}
	for z := 0; z < f.Nz; z++ {
		for y := 0; y < f.Ny; y++ {
			g.Set(f.Nx, y, z, ext(back(f.Nx, func(i int) float64 { return f.At(i, y, z) })))
		}
	}
	for z := 0; z < f.Nz; z++ {
		for x := 0; x <= f.Nx; x++ {
			g.Set(x, f.Ny, z, ext(back(f.Ny, func(i int) float64 { return g.At(x, i, z) })))
		}
	}
	return g
}

// nastyHierarchy is a 4-level hierarchy (u = 16, 8, 4, 2) over a non-cubic
// domain whose samples include NaN, ±Inf and -0.
func nastyHierarchy(t testing.TB, seed int64) *grid.Hierarchy {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := field.New(48, 64, 32)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for i := range f.Data {
		f.Data[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(10)-5))
		if rng.Intn(2048) == 0 {
			f.Data[i] = special[rng.Intn(len(special))]
		}
	}
	h, err := grid.BuildAMR(f, 16, []float64{0.2, 0.3, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func sameBits(a, b *field.Field) error {
	if !a.SameShape(b) {
		return fmt.Errorf("shape %v, reference %v", a, b)
	}
	for i, v := range b.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(v) {
			return fmt.Errorf("sample %d: %g, reference %g", i, a.Data[i], v)
		}
	}
	return nil
}

func TestMergesMatchReference(t *testing.T) {
	h := nastyHierarchy(t, 1)
	for level := range h.Levels {
		if err := sameBits(LinearMerge(h, level).Data, refLinearMerge(h, level)); err != nil {
			t.Fatalf("LinearMerge level %d: %v", level, err)
		}
		// A padded merge writes the blocks at stride u+1 and fills the pad
		// layers in place: the bits PadXY gives over the unpadded merge.
		for _, kind := range []PadKind{PadConstant, PadLinear, PadQuadratic} {
			m := LevelSource(h, level).Merge(Linear, true, kind)
			if err := sameBits(m.Data, refPadXY(refLinearMerge(h, level), kind)); err != nil || !m.Padded {
				t.Fatalf("padded Linear kind %d level %d: %v (Padded %v)", kind, level, err, m.Padded)
			}
		}
		// Padding is a Linear merge's alone: the others ignore the flag.
		for _, pad := range []bool{false, true} {
			s := LevelSource(h, level).Merge(Stack, pad, PadLinear)
			if err := sameBits(s.Data, refStackMerge(h, level)); err != nil || s.Padded {
				t.Fatalf("Stack pad %v level %d: %v (Padded %v)", pad, level, err, s.Padded)
			}
			z := LevelSource(h, level).Merge(ZOrder1D, pad, PadLinear)
			if err := sameBits(z.Data, refZOrderFlatten1D(h, level, z.Blocks)); err != nil || z.Padded {
				t.Fatalf("ZOrder1D pad %v level %d: %v (Padded %v)", pad, level, err, z.Padded)
			}
		}
	}
}

func TestPlacesMatchReference(t *testing.T) {
	h := nastyHierarchy(t, 2)
	for level, lv := range h.Levels {
		for _, c := range []struct {
			name string
			m    *Merged
			a    Arrangement
			ref  func(*Merged, *field.Field)
		}{
			{"linear", LinearMerge(h, level), Linear, refLinearPlace},
			{"stack", LevelSource(h, level).Merge(Stack, false, PadLinear), Stack, refStackPlace},
			{"zorder1d", LevelSource(h, level).Merge(ZOrder1D, false, PadLinear), ZOrder1D, refZOrderPlace1D},
		} {
			got := field.New(lv.Data.Nx, lv.Data.Ny, lv.Data.Nz)
			want := field.New(lv.Data.Nx, lv.Data.Ny, lv.Data.Nz)
			if err := Place(c.a, c.m, got); err != nil {
				t.Fatalf("%s level %d: %v", c.name, level, err)
			}
			c.ref(c.m, want)
			if err := sameBits(got, want); err != nil {
				t.Fatalf("%s level %d: %v", c.name, level, err)
			}
		}
	}
}

func TestPadXYMatchesReference(t *testing.T) {
	h := nastyHierarchy(t, 3)
	var inputs []*field.Field
	for level := range h.Levels {
		inputs = append(inputs, LinearMerge(h, level).Data)
	}
	// Lines shorter than the extrapolation stencil.
	inputs = append(inputs, inputs[0].SubBlock(0, 0, 0, 1, 1, 5), inputs[0].SubBlock(3, 2, 7, 2, 1, 3), inputs[0].SubBlock(1, 4, 2, 1, 2, 2))
	for _, kind := range []PadKind{PadConstant, PadLinear, PadQuadratic} {
		for i, f := range inputs {
			if err := sameBits(PadXY(f, kind), refPadXY(f, kind)); err != nil {
				t.Fatalf("PadXY kind %d input %d (%v): %v", kind, i, f, err)
			}
		}
	}
}

// TestPlaceFromPaddedMatchesUnpadThenPlace: placing straight from the padded
// array, at its row stride, gives what unpadding first gave.
func TestPlaceFromPaddedMatchesUnpadThenPlace(t *testing.T) {
	h := nastyHierarchy(t, 4)
	for level, lv := range h.Levels {
		m := LinearMerge(h, level)
		for _, kind := range []PadKind{PadConstant, PadLinear, PadQuadratic} {
			padded := PadXY(m.Data, kind)
			want := field.New(lv.Data.Nx, lv.Data.Ny, lv.Data.Nz)
			refLinearPlace(&Merged{Data: UnpadXY(padded), U: m.U, Blocks: m.Blocks}, want)
			got := field.New(lv.Data.Nx, lv.Data.Ny, lv.Data.Nz)
			if err := LinearPlace(&Merged{Data: padded, U: m.U, Blocks: m.Blocks, Padded: true}, got); err != nil {
				t.Fatalf("level %d kind %d: %v", level, kind, err)
			}
			if err := sameBits(got, want); err != nil {
				t.Fatalf("level %d kind %d: %v", level, kind, err)
			}
			// The flag and the shape must agree.
			if LinearPlace(&Merged{Data: padded, U: m.U, Blocks: m.Blocks}, got) == nil {
				t.Fatalf("level %d: padded array accepted as unpadded", level)
			}
			if LinearPlace(&Merged{Data: m.Data, U: m.U, Blocks: m.Blocks, Padded: true}, got) == nil {
				t.Fatalf("level %d: unpadded array accepted as padded", level)
			}
		}
	}
}

func benchHierarchy(t testing.TB, n int) *grid.Hierarchy {
	t.Helper()
	h, err := grid.BuildAMR(synth.Generate(synth.Nyx, n, 1), 16, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestLayoutAllocBudgets(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	h := benchHierarchy(t, 64)
	for level, lv := range h.Levels {
		var m *Merged
		var padded *field.Field
		if n := testing.AllocsPerRun(5, func() {
			m = LinearMerge(h, level)
			padded = PadXY(m.Data, PadLinear)
		}); n > 8 {
			t.Errorf("LinearMerge+PadXY level %d: %v allocations, budget 8", level, n)
		}
		dst := field.New(lv.Data.Nx, lv.Data.Ny, lv.Data.Nz)
		for _, c := range []struct {
			name string
			m    *Merged
			a    Arrangement
		}{
			{"Place linear", m, Linear},
			{"Place linear from padded", &Merged{Data: padded, U: m.U, Blocks: m.Blocks, Padded: true}, Linear},
			{"Place stack", LevelSource(h, level).Merge(Stack, false, PadLinear), Stack},
			{"Place zorder1d", LevelSource(h, level).Merge(ZOrder1D, false, PadLinear), ZOrder1D},
		} {
			if n := testing.AllocsPerRun(5, func() {
				if err := Place(c.a, c.m, dst); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s level %d: %v allocations, want 0", c.name, level, n)
			}
		}
	}
}

func BenchmarkLinearMergePad(b *testing.B) {
	h := benchHierarchy(b, 128)
	b.SetBytes(int64(h.PayloadBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for level := range h.Levels {
			PadXY(LinearMerge(h, level).Data, PadLinear)
		}
	}
}

func BenchmarkLinearPlace(b *testing.B) {
	h := benchHierarchy(b, 128)
	var ms []*Merged
	for level := range h.Levels {
		m := LinearMerge(h, level)
		ms = append(ms, &Merged{Data: PadXY(m.Data, PadLinear), U: m.U, Blocks: m.Blocks, Padded: true})
	}
	dst, _ := grid.New(h.Nx, h.Ny, h.Nz, h.BlockB, len(h.Levels))
	b.SetBytes(int64(h.PayloadBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for level, m := range ms {
			if err := LinearPlace(m, dst.Levels[level].Data); err != nil {
				b.Fatal(err)
			}
		}
	}
}
