package layout

import (
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/synth"
)

// TestPlaceMatchesUnmerge verifies Place (what every decoder places a
// merged stream with) puts each merged block back exactly where the level
// array had it.
func TestPlaceMatchesUnmerge(t *testing.T) {
	h := testHierarchy(t, 5)
	for _, a := range []Arrangement{Linear, Stack, ZOrder1D} {
		for level := range h.Levels {
			m := LevelSource(h, level).Merge(a, false, PadLinear)
			want := h.Levels[level].Data
			got := field.New(want.Nx, want.Ny, want.Nz)
			if err := Place(a, m, got); err != nil {
				t.Fatalf("%v level %d: %v", a, level, err)
			}
			for _, bc := range m.Blocks {
				u := m.U
				a := want.SubBlock(bc[0]*u, bc[1]*u, bc[2]*u, u, u, u)
				b := got.SubBlock(bc[0]*u, bc[1]*u, bc[2]*u, u, u, u)
				if !a.Equal(b) {
					t.Fatalf("%v level %d block %v: placed data differs", a, level, bc)
				}
			}
		}
	}
}

// TestPlaceRejectsOutOfRangeBlocks locks the defensive bound: block
// coordinates from an untrusted index must not write outside the level
// array (SetBlock would panic).
func TestPlaceRejectsOutOfRangeBlocks(t *testing.T) {
	h := testHierarchy(t, 6)
	m := LinearMerge(h, 0)
	m.Blocks[0] = [3]int{1000, 0, 0}
	dst := field.New(h.Nx, h.Ny, h.Nz)
	if err := LinearPlace(m, dst); err == nil {
		t.Fatal("out-of-range block accepted")
	}
	m.Blocks[0] = [3]int{-1, 0, 0}
	if err := LinearPlace(m, dst); err == nil {
		t.Fatal("negative block accepted")
	}
}

// TestRawLenMatchesMerge ties the size the body scan checks decoded streams
// against to the array Merge builds, for every merged arrangement, padded or
// not, empty level included.
func TestRawLenMatchesMerge(t *testing.T) {
	h := testHierarchy(t, 7)
	empty, err := grid.BuildAMR(synth.Generate(synth.Nyx, 16, 7), 8, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []Source{LevelSource(empty, 0)}
	for level := range h.Levels {
		srcs = append(srcs, LevelSource(h, level))
	}
	for _, a := range []Arrangement{Linear, Stack, ZOrder1D} {
		for _, pad := range []bool{false, true} {
			for i, src := range srcs {
				m := src.Merge(a, pad, PadLinear)
				want := int64(0)
				if m.Data != nil {
					want = int64(m.Data.Bytes())
				}
				if got := a.RawLen(src.U, len(m.Blocks), pad); got != want {
					t.Fatalf("%v pad %v source %d: RawLen %d, Merge built %d bytes", a, pad, i, got, want)
				}
			}
		}
	}
}
