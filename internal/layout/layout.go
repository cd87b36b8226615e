// Package layout implements the spatial arrangements the paper compares for
// compressing the unit blocks of a multi-resolution level (§III-A, Fig. 6):
//
//   - Linear merge (the baseline the paper builds on): unit blocks
//     concatenated along z into a u×u×(u·k) array.
//   - Stack merge (AMRIC): unit blocks stacked into a near-cubic
//     arrangement, which balances dimensions but adjoins non-neighboring
//     blocks, creating unsmooth internal boundaries.
//   - TAC partition: greedy merging of adjacent owned blocks into maximal
//     rectangular boxes, preserving locality but producing variable shapes
//     that must be compressed separately.
//
// It also provides the paper's padding operator (one extrapolated layer on
// each of the two small dimensions of a linear merge, §III-A Improvement 1)
// and the Z-order curve used by the zMesh-style baseline.
package layout

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/field"
	"repro/internal/grid"
)

// Merged is a level's unit blocks arranged into a single array.
type Merged struct {
	// Data is the merged array.
	Data *field.Field
	// U is the unit block edge.
	U int
	// Blocks lists the block coordinates in merge order.
	Blocks [][3]int
	// Padded says Data still carries PadXY's extra +x and +y layer, as a
	// decoded linear-merge stream does; LinearPlace steps over it, so
	// placing needs no UnpadXY. Only linear merges are padded.
	Padded bool
}

// gather copies the listed unit blocks of a level into a new u×u×(u·k)
// array, block i at z = i·u, row by row from the level array.
func gather(h *grid.Hierarchy, level int, blocks [][3]int) *field.Field {
	u := h.UnitBlockSize(level)
	src := h.Levels[level].Data
	out := field.New(u, u, u*len(blocks))
	for i, bc := range blocks {
		field.CopyBlock(out, 0, 0, i*u, src, bc[0]*u, bc[1]*u, bc[2]*u, u, u, u)
	}
	return out
}

// scatter reverses gather: the u³ block at z = i·u of src lands at block i's
// domain position in dst. src is read at its own strides, so it may be
// wider than u in x and y.
func scatter(src *field.Field, u int, blocks [][3]int, dst *field.Field) error {
	for i, bc := range blocks {
		if err := checkBlockFits(dst, bc, u); err != nil {
			return err
		}
		field.CopyBlock(dst, bc[0]*u, bc[1]*u, bc[2]*u, src, 0, 0, i*u, u, u, u)
	}
	return nil
}

// LinearMerge concatenates the owned unit blocks of hierarchy level l along
// the z axis: the result is u×u×(u·k) for k owned blocks. Blocks appear in
// raster order, so blocks adjacent along z in the domain often remain
// adjacent in the merge.
func LinearMerge(h *grid.Hierarchy, level int) *Merged {
	u := h.UnitBlockSize(level)
	blocks := h.OwnedBlocks(level)
	k := len(blocks)
	if k == 0 {
		return &Merged{Data: nil, U: u}
	}
	return &Merged{Data: gather(h, level, blocks), U: u, Blocks: blocks}
}

// LinearPlace writes the merged blocks into dst, a full-domain array at the
// level's resolution (each block lands at its domain position).
func LinearPlace(m *Merged, dst *field.Field) error {
	if m.Data == nil {
		return nil
	}
	u, w := m.U, m.U
	if m.Padded {
		w++
	}
	if m.Data.Nx != w || m.Data.Ny != w || m.Data.Nz != u*len(m.Blocks) {
		return fmt.Errorf("layout: merged shape %v inconsistent with %d blocks of u=%d (padded %v)", m.Data, len(m.Blocks), u, m.Padded)
	}
	return scatter(m.Data, u, m.Blocks, dst)
}

// LinearUnmerge writes the merged blocks back into hierarchy level l,
// setting ownership accordingly.
func LinearUnmerge(m *Merged, h *grid.Hierarchy, level int) error {
	if u := h.UnitBlockSize(level); m.U != u {
		return fmt.Errorf("layout: unit size %d != level unit size %d", m.U, u)
	}
	if err := LinearPlace(m, h.Levels[level].Data); err != nil {
		return err
	}
	lv := h.Levels[level]
	for _, bc := range m.Blocks {
		lv.Owned[h.BlockIndex(bc[0], bc[1], bc[2])] = true
	}
	return nil
}

// StackMerge arranges the owned unit blocks of a level into an m×m×m cubic
// grid of slots (m = ⌈k^(1/3)⌉), the AMRIC approach. Slots beyond the k real
// blocks are filled with a copy of the final block so the array stays
// well-defined; the decoder discards them.
func StackMerge(h *grid.Hierarchy, level int) *Merged {
	u := h.UnitBlockSize(level)
	blocks := h.OwnedBlocks(level)
	k := len(blocks)
	if k == 0 {
		return &Merged{Data: nil, U: u}
	}
	m := int(math.Ceil(math.Cbrt(float64(k))))
	out := field.New(u*m, u*m, u*m)
	src := h.Levels[level].Data
	slot := 0
	for sz := 0; sz < m; sz++ {
		for sy := 0; sy < m; sy++ {
			for sx := 0; sx < m; sx++ {
				bc := blocks[min(slot, k-1)]
				field.CopyBlock(out, sx*u, sy*u, sz*u, src, bc[0]*u, bc[1]*u, bc[2]*u, u, u, u)
				slot++
			}
		}
	}
	return &Merged{Data: out, U: u, Blocks: blocks}
}

// StackPlace writes the stacked blocks into dst, a full-domain array at the
// level's resolution; padding slots beyond the real blocks are discarded.
func StackPlace(m *Merged, dst *field.Field) error {
	if m.Data == nil {
		return nil
	}
	u := m.U
	k := len(m.Blocks)
	mm := int(math.Ceil(math.Cbrt(float64(k))))
	if m.Data.Nx != u*mm || m.Data.Ny != u*mm || m.Data.Nz != u*mm {
		return fmt.Errorf("layout: stacked shape %v inconsistent with k=%d u=%d", m.Data, k, u)
	}
	slot := 0
	for sz := 0; sz < mm; sz++ {
		for sy := 0; sy < mm; sy++ {
			for sx := 0; sx < mm; sx++ {
				if slot >= k {
					return nil
				}
				bc := m.Blocks[slot]
				if err := checkBlockFits(dst, bc, u); err != nil {
					return err
				}
				field.CopyBlock(dst, bc[0]*u, bc[1]*u, bc[2]*u, m.Data, sx*u, sy*u, sz*u, u, u, u)
				slot++
			}
		}
	}
	return nil
}

// Box is an axis-aligned run of owned blocks, in block coordinates.
type Box struct {
	X0, Y0, Z0 int // origin block
	WX, WY, WZ int // extent in blocks
}

// TACPartition greedily merges adjacent owned blocks of a level into maximal
// rectangular boxes (a simplification of TAC's kd-tree merge that preserves
// its key property: merged regions are spatially contiguous). Boxes are
// discovered in raster order: grow along x, then extend rows along y, then
// planes along z.
func TACPartition(h *grid.Hierarchy, level int) []Box {
	nbx, nby, nbz := h.NumBlocks()
	lv := h.Levels[level]
	owned := func(bx, by, bz int) bool {
		return lv.Owned[h.BlockIndex(bx, by, bz)]
	}
	visited := make([]bool, nbx*nby*nbz)
	vis := func(bx, by, bz int) bool { return visited[h.BlockIndex(bx, by, bz)] }
	var boxes []Box
	for bz := 0; bz < nbz; bz++ {
		for by := 0; by < nby; by++ {
			for bx := 0; bx < nbx; bx++ {
				if !owned(bx, by, bz) || vis(bx, by, bz) {
					continue
				}
				wx := 1
				for bx+wx < nbx && owned(bx+wx, by, bz) && !vis(bx+wx, by, bz) {
					wx++
				}
				wy := 1
				for by+wy < nby && rowFree(owned, vis, bx, by+wy, bz, wx) {
					wy++
				}
				wz := 1
				for bz+wz < nbz && planeFree(owned, vis, bx, by, bz+wz, wx, wy) {
					wz++
				}
				for dz := 0; dz < wz; dz++ {
					for dy := 0; dy < wy; dy++ {
						for dx := 0; dx < wx; dx++ {
							visited[h.BlockIndex(bx+dx, by+dy, bz+dz)] = true
						}
					}
				}
				boxes = append(boxes, Box{bx, by, bz, wx, wy, wz})
			}
		}
	}
	return boxes
}

func rowFree(owned, vis func(int, int, int) bool, bx, by, bz, wx int) bool {
	for dx := 0; dx < wx; dx++ {
		if !owned(bx+dx, by, bz) || vis(bx+dx, by, bz) {
			return false
		}
	}
	return true
}

func planeFree(owned, vis func(int, int, int) bool, bx, by, bz, wx, wy int) bool {
	for dy := 0; dy < wy; dy++ {
		if !rowFree(owned, vis, bx, by+dy, bz, wx) {
			return false
		}
	}
	return true
}

// ExtractBox copies the samples of a box from a level into a standalone
// field of shape (u·WX, u·WY, u·WZ).
func ExtractBox(h *grid.Hierarchy, level int, b Box) *field.Field {
	u := h.UnitBlockSize(level)
	return h.Levels[level].Data.SubBlock(b.X0*u, b.Y0*u, b.Z0*u, b.WX*u, b.WY*u, b.WZ*u)
}

// InsertBox writes a box's samples back into a level and marks ownership.
func InsertBox(h *grid.Hierarchy, level int, b Box, data *field.Field) error {
	u := h.UnitBlockSize(level)
	if data.Nx != b.WX*u || data.Ny != b.WY*u || data.Nz != b.WZ*u {
		return fmt.Errorf("layout: box data %v does not match box %+v u=%d", data, b, u)
	}
	h.Levels[level].Data.SetBlock(b.X0*u, b.Y0*u, b.Z0*u, data)
	for dz := 0; dz < b.WZ; dz++ {
		for dy := 0; dy < b.WY; dy++ {
			for dx := 0; dx < b.WX; dx++ {
				h.Levels[level].Owned[h.BlockIndex(b.X0+dx, b.Y0+dy, b.Z0+dz)] = true
			}
		}
	}
	return nil
}

// PadKind selects the extrapolation used for padding values (§III-A: the
// paper tests constant, linear, and quadratic, and picks linear).
type PadKind byte

const (
	// PadConstant replicates the edge sample.
	PadConstant PadKind = iota
	// PadLinear extrapolates linearly from the last two samples (the
	// paper's choice).
	PadLinear
	// PadQuadratic extrapolates quadratically from the last three samples.
	PadQuadratic
)

// PadXY appends one extrapolated layer to the +x and +y faces of the merged
// array, growing u×u×L to (u+1)×(u+1)×L. Size overhead is (u+1)²/u², as
// analyzed in the paper.
func PadXY(f *field.Field, kind PadKind) *field.Field {
	g := field.New(f.Nx+1, f.Ny+1, f.Nz)
	nx, ny, gx := f.Nx, f.Ny, g.Nx
	for z := 0; z < f.Nz; z++ {
		plane := g.Data[z*gx*g.Ny : (z+1)*gx*g.Ny]
		// Interior rows, each with its +x sample.
		for y := 0; y < ny; y++ {
			src := f.Data[f.Index(0, y, z):][:nx]
			row := plane[y*gx:][:gx]
			copy(row, src)
			row[nx] = extrapolate(kind, src[nx-1], src[max(nx-2, 0)], src[max(nx-3, 0)])
		}
		// +y row, including the new corner: it extrapolates from the rows
		// above, whose +x samples are already in place.
		r0, r1, r2 := plane[(ny-1)*gx:], plane[max(ny-2, 0)*gx:], plane[max(ny-3, 0)*gx:]
		row := plane[ny*gx:][:gx]
		for x := range row {
			row[x] = extrapolate(kind, r0[x], r1[x], r2[x])
		}
	}
	return g
}

// UnpadXY drops the last x and y layers, reversing PadXY.
func UnpadXY(f *field.Field) *field.Field {
	return f.SubBlock(0, 0, 0, f.Nx-1, f.Ny-1, f.Nz)
}

// extrapolate predicts the next sample of a line from its trailing samples
// (s0 = last, s1 = second-to-last, s2 = third-to-last; a line shorter than
// three repeats its first sample).
func extrapolate(kind PadKind, s0, s1, s2 float64) float64 {
	switch kind {
	case PadLinear:
		return 2*s0 - s1
	case PadQuadratic:
		return 3*s0 - 3*s1 + s2
	default:
		return s0
	}
}

// MortonEncode interleaves the bits of (x, y, z) into a Morton (z-order)
// index. Coordinates must be < 2²¹.
func MortonEncode(x, y, z uint32) uint64 {
	return spread(x) | spread(y)<<1 | spread(z)<<2
}

// MortonDecode reverses MortonEncode.
func MortonDecode(m uint64) (x, y, z uint32) {
	return compact(m), compact(m >> 1), compact(m >> 2)
}

func spread(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
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

// ZOrderFlatten1D traverses the owned unit blocks of a level in Morton order
// of their block coordinates and concatenates all samples (raster order
// within a block) into a 1D field — the zMesh-style layout that sacrifices
// 3D spatial information for locality across refinement levels.
func ZOrderFlatten1D(h *grid.Hierarchy, level int) *Merged {
	u := h.UnitBlockSize(level)
	blocks := h.OwnedBlocks(level)
	if len(blocks) == 0 {
		return &Merged{Data: nil, U: u}
	}
	sortBlocksMorton(blocks)
	// Blocks end to end in raster order are a linear merge read flat.
	out := gather(h, level, blocks)
	out.Nx, out.Ny, out.Nz = out.Len(), 1, 1
	return &Merged{Data: out, U: u, Blocks: blocks}
}

// ZOrderPlace1D writes the Morton-flattened blocks into dst, a full-domain
// array at the level's resolution.
func ZOrderPlace1D(m *Merged, dst *field.Field) error {
	if m.Data == nil {
		return nil
	}
	u := m.U
	if m.Data.Len() != u*u*u*len(m.Blocks) {
		return fmt.Errorf("layout: 1D length %d inconsistent with %d blocks", m.Data.Len(), len(m.Blocks))
	}
	linear := field.Field{Nx: u, Ny: u, Nz: u * len(m.Blocks), Data: m.Data.Data}
	return scatter(&linear, u, m.Blocks, dst)
}

// checkBlockFits verifies block coordinates land inside dst (defensive: the
// block list may come from an untrusted container index).
func checkBlockFits(dst *field.Field, bc [3]int, u int) error {
	if bc[0] < 0 || bc[1] < 0 || bc[2] < 0 ||
		(bc[0]+1)*u > dst.Nx || (bc[1]+1)*u > dst.Ny || (bc[2]+1)*u > dst.Nz {
		return fmt.Errorf("layout: block %v of unit %d outside level array %v", bc, u, dst)
	}
	return nil
}

func sortBlocksMorton(blocks [][3]int) {
	morton := func(b [3]int) uint64 { return MortonEncode(uint32(b[0]), uint32(b[1]), uint32(b[2])) }
	slices.SortFunc(blocks, func(a, b [3]int) int { return cmp.Compare(morton(a), morton(b)) })
}
