package layout

import (
	"testing"

	"repro/internal/field"
)

// TestPlaceMatchesUnmerge verifies the Place functions (what every decoder
// places a merged stream with) put each merged block back exactly where the
// level array had it.
func TestPlaceMatchesUnmerge(t *testing.T) {
	h := testHierarchy(t, 5)
	type variant struct {
		name  string
		merge func(level int) *Merged
		place func(m *Merged, dst *field.Field) error
	}
	variants := []variant{
		{"linear", func(l int) *Merged { return LinearMerge(h, l) }, LinearPlace},
		{"stack", func(l int) *Merged { return LevelSource(h, l).Stack() }, StackPlace},
		{"zorder1d", func(l int) *Merged { return LevelSource(h, l).ZOrder1D() }, ZOrderPlace1D},
	}
	for _, v := range variants {
		for level := range h.Levels {
			m := v.merge(level)
			want := h.Levels[level].Data
			got := field.New(want.Nx, want.Ny, want.Nz)
			if err := v.place(m, got); err != nil {
				t.Fatalf("%s level %d: %v", v.name, level, err)
			}
			for _, bc := range m.Blocks {
				u := m.U
				a := want.SubBlock(bc[0]*u, bc[1]*u, bc[2]*u, u, u, u)
				b := got.SubBlock(bc[0]*u, bc[1]*u, bc[2]*u, u, u, u)
				if !a.Equal(b) {
					t.Fatalf("%s level %d block %v: placed data differs", v.name, level, bc)
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
