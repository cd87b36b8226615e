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
//   - Z-order 1D (zMesh-style): unit blocks in Morton order, flattened into
//     one line of samples.
//
// This package is the one home of each arrangement. Arrangement is the
// container header's arrangement byte; the three merged arrangements are
// each one slot grid (slotsOf), and Source.Merge builds, Place places and
// Arrangement.RawLen sizes a merged level from that grid alone, so the
// writer, every decoder and the body scan cannot disagree on a shape.
//
// It also provides the paper's padding operator (one extrapolated layer on
// each of the two small dimensions of a linear merge, §III-A Improvement 1).
package layout

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/field"
	"repro/internal/grid"
)

// Arrangement selects how a level's unit blocks are laid out before
// compression (Fig. 6 of the paper). Its value is the container header's
// arrangement byte.
type Arrangement byte

// Arrangements.
const (
	// Linear concatenates unit blocks along z (the baseline layout, and —
	// with padding and adaptive eb — the paper's SZ3MR layout).
	Linear Arrangement = iota
	// Stack stacks unit blocks into a near-cube (AMRIC).
	Stack
	// TAC merges adjacent blocks into boxes compressed separately.
	TAC
	// ZOrder1D flattens blocks along a Morton curve into a 1D array
	// (zMesh-style; loses higher-dimensional spatial information).
	ZOrder1D
)

func (a Arrangement) String() string {
	if a.Valid() {
		return [...]string{"linear", "stack", "tac", "zorder1d"}[a]
	}
	return fmt.Sprintf("Arrangement(%d)", byte(a))
}

// Valid reports whether a names one of the four arrangements.
func (a Arrangement) Valid() bool { return a <= ZOrder1D }

// slots is the grid of u³ slots a merged arrangement of k unit blocks
// fills: mx×my×mz slots, slot i at (i%mx, i/mx%my, i/(mx·my)) in slot
// units, and w extra layers on the +x and +y faces (PadXY's).
type slots struct{ mx, my, mz, w int }

// slotsOf returns a's slot grid for k blocks: 1×1×k for Linear and
// ZOrder1D, the m×m×m cube with m = ⌈k^(1/3)⌉ for Stack. Only a Linear
// merge is ever padded; the flag is ignored for the others.
func slotsOf(a Arrangement, k int, padded bool) slots {
	if a == Stack {
		m := int(math.Ceil(math.Cbrt(float64(k))))
		return slots{m, m, m, 0}
	}
	if padded && a == Linear {
		return slots{1, 1, k, 1}
	}
	return slots{1, 1, k, 0}
}

// shape returns the dimensions of the merged array of unit edge u.
func (g slots) shape(u int) (nx, ny, nz int) { return g.mx*u + g.w, g.my*u + g.w, g.mz * u }

// origin returns the sample coordinates of slot i's origin.
func (g slots) origin(i, u int) (x, y, z int) {
	return i % g.mx * u, i / g.mx % g.my * u, i / (g.mx * g.my) * u
}

// RawLen returns the byte size of a merged level under a: k unit blocks of
// edge u, padded or not (which counts only for Linear). It is 0 for k = 0.
func (a Arrangement) RawLen(u, k int, padded bool) int64 {
	nx, ny, nz := slotsOf(a, k, padded).shape(u)
	return int64(nx) * int64(ny) * int64(nz) * 8
}

// Merged is a level's unit blocks arranged into a single array.
type Merged struct {
	// Data is the merged array.
	Data *field.Field
	// U is the unit block edge.
	U int
	// Blocks lists the block coordinates in merge order.
	Blocks [][3]int
	// Padded says Data still carries PadXY's extra +x and +y layer, as a
	// decoded linear-merge stream does; Place steps over it, so placing
	// needs no UnpadXY. Only linear merges are padded.
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

// ownedCount returns the number of blocks the level owns.
func (s Source) ownedCount() int {
	k := 0
	for _, o := range s.Owned {
		if o {
			k++
		}
	}
	return k
}

// Blocks returns the coordinates of the owned blocks in raster order (z,
// then y, then x).
func (s Source) Blocks() [][3]int {
	out := make([][3]int, 0, s.ownedCount())
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

// putBox writes the blocks of box b into dst with its origin at (x, y, z),
// as one region: the blocks of a box are adjacent in Data, and a 2× mean
// of the region is the 2× mean of each of its blocks (their edges are
// even). dst is written at its own strides, so it may be wider than b.
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

// Merge arranges the owned blocks under a, a merged arrangement (not TAC):
// block i of the merge order — raster order, Morton order for ZOrder1D —
// in slot i of a's slot grid. Linear keeps blocks adjacent along z in the
// domain often adjacent in the merge; with pad it is (u+1)×(u+1)×(u·k), the
// blocks written at stride u+1 and PadXY's +x and +y layers filled in
// place. Stack fills the slots beyond the k real blocks with copies of the
// last block so the array stays well-defined; Place discards them. ZOrder1D
// is its 1×1×k grid read flat, a (u³·k)×1×1 array. An unowned level gives a
// Merged with nil Data.
func (s Source) Merge(a Arrangement, pad bool, kind PadKind) *Merged {
	u := s.U
	blocks := s.Blocks()
	k := len(blocks)
	if k == 0 {
		return &Merged{U: u}
	}
	if a == ZOrder1D {
		sortBlocksMorton(blocks)
	}
	g := slotsOf(a, k, pad)
	out := field.New(g.shape(u))
	for i := range g.mx * g.my * g.mz {
		x, y, z := g.origin(i, u)
		bc := blocks[min(i, k-1)]
		s.putBox(out, x, y, z, Box{bc[0], bc[1], bc[2], 1, 1, 1})
	}
	if g.w > 0 {
		fillPadXY(out, kind)
	}
	if a == ZOrder1D {
		out.Nx, out.Ny, out.Nz = out.Len(), 1, 1
	}
	return &Merged{Data: out, U: u, Blocks: blocks, Padded: g.w > 0}
}

// Place writes m's blocks, merged under a (not TAC), into dst, a
// full-domain array at the level's resolution: block i from slot i of a's
// slot grid to its domain position. m.Data must have the shape Merge gives
// it — a ZOrder1D array may have any shape of that length — and its pad
// layers, when Padded, are stepped over.
func Place(a Arrangement, m *Merged, dst *field.Field) error {
	if m.Data == nil {
		return nil
	}
	u, k := m.U, len(m.Blocks)
	g := slotsOf(a, k, m.Padded)
	nx, ny, nz := g.shape(u)
	src := *m.Data
	if a == ZOrder1D && src.Len() == nx*ny*nz {
		src.Nx, src.Ny, src.Nz = nx, ny, nz
	}
	if src.Nx != nx || src.Ny != ny || src.Nz != nz {
		return fmt.Errorf("layout: %v merged shape %v inconsistent with %d blocks of u=%d (padded %v)", a, m.Data, k, u, m.Padded)
	}
	for i, bc := range m.Blocks {
		if err := checkBlockFits(dst, bc, u); err != nil {
			return err
		}
		x, y, z := g.origin(i, u)
		field.CopyBlock(dst, bc[0]*u, bc[1]*u, bc[2]*u, &src, x, y, z, u, u, u)
	}
	return nil
}

// LinearMerge concatenates the owned unit blocks of hierarchy level l along
// the z axis: the result is u×u×(u·k) for k owned blocks (Source.Merge,
// Linear, unpadded).
func LinearMerge(h *grid.Hierarchy, level int) *Merged {
	return LevelSource(h, level).Merge(Linear, false, PadConstant)
}

// LinearPlace is Place(Linear, m, dst).
func LinearPlace(m *Merged, dst *field.Field) error { return Place(Linear, m, dst) }

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
	// A box holds at least one owned block, so one allocation holds them all.
	boxes := make([]Box, 0, s.ownedCount())
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

// Boxes copies the blocks of each box into a field of shape
// (u·WX, u·WY, u·WZ). The fields are views of one array, which all of them
// keep alive: a level's boxes cost three allocations, not two per box.
func (s Source) Boxes(boxes []Box) []*field.Field {
	u3 := s.U * s.U * s.U
	n := 0
	for _, b := range boxes {
		n += b.WX * b.WY * b.WZ * u3
	}
	slab := make([]float64, n)
	views := make([]field.Field, len(boxes))
	out := make([]*field.Field, len(boxes))
	for i, b := range boxes {
		m := b.WX * b.WY * b.WZ * u3
		views[i] = field.Field{Nx: b.WX * s.U, Ny: b.WY * s.U, Nz: b.WZ * s.U, Data: slab[:m:m]}
		slab = slab[m:]
		s.putBox(&views[i], 0, 0, 0, b)
		out[i] = &views[i]
	}
	return out
}

// ExtractBox copies the samples of a box from a level into a standalone
// field of shape (u·WX, u·WY, u·WZ) (Source.Boxes).
func ExtractBox(h *grid.Hierarchy, level int, b Box) *field.Field {
	return LevelSource(h, level).Boxes([]Box{b})[0]
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

func spread(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
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
