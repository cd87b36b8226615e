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

// Source is one resolution level's unit blocks as every arrangement reads
// them: the block grid, which blocks the level owns, and the array the
// blocks are read from. It is the one seam between the arrangements and
// where the samples live. A hierarchy level (LevelSource) is its own dense
// array; a uniform field's ROI levels read their blocks straight out of the
// field — copied at full rate, or mean-downsampled 2× per axis — so the
// buffers of a uniform field are built without its hierarchy.
type Source struct {
	// U is the unit block edge at this level.
	U int
	// NBX, NBY, NBZ are the block-grid dimensions.
	NBX, NBY, NBZ int
	// Owned marks, per block (flat index bx + NBX*(by + NBY*bz)), whether
	// the level owns it.
	Owned []bool
	// Data holds block (bx, by, bz) as the region of edge n at
	// (bx·n, by·n, bz·n), where n is U, or 2U when Halve is set.
	Data *field.Field
	// Halve mean-downsamples each 2U-edge region to U (field.DownsampleBlock2,
	// the restriction grid.SetBlockFromFine applies).
	Halve bool
}

// LevelSource reads the unit blocks of hierarchy level l from its dense
// array.
func LevelSource(h *grid.Hierarchy, level int) Source {
	nbx, nby, nbz := h.NumBlocks()
	lv := h.Levels[level]
	return Source{U: h.UnitBlockSize(level), NBX: nbx, NBY: nby, NBZ: nbz, Owned: lv.Owned, Data: lv.Data}
}

// owned reports whether the level owns block (bx, by, bz).
func (s Source) owned(bx, by, bz int) bool { return s.Owned[bx+s.NBX*(by+s.NBY*bz)] }

// Blocks returns the coordinates of the owned blocks in raster order (z,
// then y, then x).
func (s Source) Blocks() [][3]int {
	k := 0
	for _, o := range s.Owned {
		if o {
			k++
		}
	}
	out := make([][3]int, 0, k)
	for bz := 0; bz < s.NBZ; bz++ {
		for by := 0; by < s.NBY; by++ {
			for bx := 0; bx < s.NBX; bx++ {
				if s.owned(bx, by, bz) {
					out = append(out, [3]int{bx, by, bz})
				}
			}
		}
	}
	return out
}

// put writes unit block bc into dst with its origin at (x, y, z). dst is
// written at its own strides, so it may be wider than the block.
func (s Source) put(dst *field.Field, x, y, z int, bc [3]int) {
	s.putBox(dst, x, y, z, Box{bc[0], bc[1], bc[2], 1, 1, 1})
}

// putBox writes the blocks of box b into dst with its origin at (x, y, z),
// as one region: the blocks of a box are adjacent in Data, and a 2× mean
// of the region is the 2× mean of each of its blocks (their edges are
// even).
func (s Source) putBox(dst *field.Field, x, y, z int, b Box) {
	n := s.U
	if s.Halve {
		n *= 2
	}
	sx, sy, sz, wx, wy, wz := b.X0*n, b.Y0*n, b.Z0*n, b.WX*n, b.WY*n, b.WZ*n
	if s.Halve {
		field.DownsampleBlock2(dst, x, y, z, s.Data, sx, sy, sz, wx, wy, wz)
		return
	}
	field.CopyBlock(dst, x, y, z, s.Data, sx, sy, sz, wx, wy, wz)
}

// Linear is the linear merge of the owned blocks: block i at z = i·u of a
// u×u×(u·k) array, in raster order, so blocks adjacent along z in the domain
// often remain adjacent in the merge. With pad the array is (u+1)×(u+1)×(u·k):
// the blocks are written at stride u+1 and PadXY's +x and +y layers are
// filled in place. An unowned level gives a Merged with nil Data.
func (s Source) Linear(pad bool, kind PadKind) *Merged {
	u := s.U
	blocks := s.Blocks()
	if len(blocks) == 0 {
		return &Merged{U: u}
	}
	w := u
	if pad {
		w++
	}
	out := s.gather(blocks, w)
	if pad {
		fillPadXY(out, kind)
	}
	return &Merged{Data: out, U: u, Blocks: blocks, Padded: pad}
}

// gather writes the listed blocks end to end along z into a new w×w×(u·k)
// array (w ≥ u), block i at z = i·u.
func (s Source) gather(blocks [][3]int, w int) *field.Field {
	u := s.U
	out := field.New(w, w, u*len(blocks))
	for i, bc := range blocks {
		s.put(out, 0, 0, i*u, bc)
	}
	return out
}

// scatter writes the u³ block at z = i·u of src to block i's domain
// position in dst, reversing an unpadded Linear. src is read at its own
// strides, so it may be wider than u in x and y.
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
// the z axis: the result is u×u×(u·k) for k owned blocks (Source.Linear,
// unpadded).
func LinearMerge(h *grid.Hierarchy, level int) *Merged {
	return LevelSource(h, level).Linear(false, PadConstant)
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

// Stack arranges the owned unit blocks into an m×m×m cubic grid of slots
// (m = ⌈k^(1/3)⌉), the AMRIC approach. Slots beyond the k real blocks are
// filled with a copy of the final block so the array stays well-defined;
// the decoder discards them.
func (s Source) Stack() *Merged {
	u := s.U
	blocks := s.Blocks()
	k := len(blocks)
	if k == 0 {
		return &Merged{U: u}
	}
	m := int(math.Ceil(math.Cbrt(float64(k))))
	out := field.New(u*m, u*m, u*m)
	slot := 0
	for sz := 0; sz < m; sz++ {
		for sy := 0; sy < m; sy++ {
			for sx := 0; sx < m; sx++ {
				s.put(out, sx*u, sy*u, sz*u, blocks[min(slot, k-1)])
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

// TACBoxes greedily merges adjacent owned blocks into maximal rectangular
// boxes (a simplification of TAC's kd-tree merge that preserves its key
// property: merged regions are spatially contiguous). Boxes are discovered
// in raster order: grow along x, then extend rows along y, then planes
// along z.
func (s Source) TACBoxes() []Box {
	nbx, nby, nbz := s.NBX, s.NBY, s.NBZ
	visited := make([]bool, nbx*nby*nbz)
	vis := func(bx, by, bz int) bool { return visited[bx+nbx*(by+nby*bz)] }
	var boxes []Box
	for bz := 0; bz < nbz; bz++ {
		for by := 0; by < nby; by++ {
			for bx := 0; bx < nbx; bx++ {
				if !s.owned(bx, by, bz) || vis(bx, by, bz) {
					continue
				}
				wx := 1
				for bx+wx < nbx && s.owned(bx+wx, by, bz) && !vis(bx+wx, by, bz) {
					wx++
				}
				wy := 1
				for by+wy < nby && rowFree(s.owned, vis, bx, by+wy, bz, wx) {
					wy++
				}
				wz := 1
				for bz+wz < nbz && planeFree(s.owned, vis, bx, by, bz+wz, wx, wy) {
					wz++
				}
				for dz := 0; dz < wz; dz++ {
					for dy := 0; dy < wy; dy++ {
						for dx := 0; dx < wx; dx++ {
							visited[bx+dx+nbx*(by+dy+nby*(bz+dz))] = true
						}
					}
				}
				boxes = append(boxes, Box{bx, by, bz, wx, wy, wz})
			}
		}
	}
	return boxes
}

// TACPartition is Source.TACBoxes over hierarchy level l.
func TACPartition(h *grid.Hierarchy, level int) []Box {
	return LevelSource(h, level).TACBoxes()
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

// Box copies the blocks of a box into a standalone field of shape
// (u·WX, u·WY, u·WZ).
func (s Source) Box(b Box) *field.Field {
	u := s.U
	out := field.New(b.WX*u, b.WY*u, b.WZ*u)
	s.putBox(out, 0, 0, 0, b)
	return out
}

// ExtractBox copies the samples of a box from a level into a standalone
// field of shape (u·WX, u·WY, u·WZ) (Source.Box).
func ExtractBox(h *grid.Hierarchy, level int, b Box) *field.Field {
	return LevelSource(h, level).Box(b)
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
	field.CopyBlock(g, 0, 0, 0, f, 0, 0, 0, f.Nx, f.Ny, f.Nz)
	fillPadXY(g, kind)
	return g
}

// fillPadXY fills the last x and y layers of g from the samples before
// them: each row's +x sample extrapolates the row, then the +y row —
// including the corner — extrapolates the rows above, whose +x samples are
// already in place.
func fillPadXY(g *field.Field, kind PadKind) {
	nx, ny, gx := g.Nx-1, g.Ny-1, g.Nx
	for z := 0; z < g.Nz; z++ {
		plane := g.Data[z*gx*g.Ny : (z+1)*gx*g.Ny]
		for y := 0; y < ny; y++ {
			row := plane[y*gx:][:gx]
			row[nx] = extrapolate(kind, row[nx-1], row[max(nx-2, 0)], row[max(nx-3, 0)])
		}
		r0, r1, r2 := plane[(ny-1)*gx:], plane[max(ny-2, 0)*gx:], plane[max(ny-3, 0)*gx:]
		row := plane[ny*gx:][:gx]
		for x := range row {
			row[x] = extrapolate(kind, r0[x], r1[x], r2[x])
		}
	}
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

// ZOrder1D traverses the owned unit blocks in Morton order of their block
// coordinates and concatenates all samples (raster order within a block)
// into a 1D field — the zMesh-style layout that sacrifices 3D spatial
// information for locality across refinement levels.
func (s Source) ZOrder1D() *Merged {
	u := s.U
	blocks := s.Blocks()
	if len(blocks) == 0 {
		return &Merged{U: u}
	}
	sortBlocksMorton(blocks)
	// Blocks end to end in raster order are a linear merge read flat.
	out := s.gather(blocks, u)
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
