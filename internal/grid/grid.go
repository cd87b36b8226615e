// Package grid models multi-resolution (AMR-style) data: a hierarchy of
// resolution levels, each owning a disjoint subset of the domain's blocks.
//
// The domain is partitioned into cubic blocks of B fine cells per edge
// (B = 2ⁿ, n > 2, per §III of the paper). Every block is owned by exactly
// one level: level 0 stores it at full resolution (B³ samples), level l at
// 2ˡ×-reduced resolution ((B/2ˡ)³ samples). This uniform representation
// covers both AMR simulation output and "adaptive" data derived from uniform
// grids by ROI extraction (package roi).
package grid

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/field"
)

// Hierarchy is a multi-resolution dataset over a fine-resolution domain.
type Hierarchy struct {
	// Nx, Ny, Nz are the fine (level-0) domain dimensions. They must be
	// multiples of BlockB.
	Nx, Ny, Nz int
	// BlockB is the block edge in fine cells (a power of two > 4).
	BlockB int
	// Levels holds per-level data, index 0 = finest. Every block of the
	// domain is owned by exactly one level.
	Levels []*Level

	// scratch holds SetBlockFromFine's intermediate means for levels ≥ 2;
	// allocated on first use.
	scratch *field.Field
}

// Level is one resolution level of a hierarchy.
type Level struct {
	// Index is the level number (0 = finest).
	Index int
	// Scale is the coarsening factor 2^Index.
	Scale int
	// Data is a full-domain array at this level's resolution
	// (Nx/Scale × Ny/Scale × Nz/Scale); only samples inside owned blocks
	// are meaningful.
	Data *field.Field
	// Owned marks, per domain block (flat index bx + nbx*(by + nby*bz)),
	// whether this level owns that block.
	Owned []bool
}

// NumBlocks returns the block-grid dimensions.
func (h *Hierarchy) NumBlocks() (nbx, nby, nbz int) {
	return h.Nx / h.BlockB, h.Ny / h.BlockB, h.Nz / h.BlockB
}

// BlockIndex returns the flat block index for block coordinates.
func (h *Hierarchy) BlockIndex(bx, by, bz int) int {
	nbx, nby, _ := h.NumBlocks()
	return bx + nbx*(by+nby*bz)
}

// UnitBlockSize returns the per-level unit block edge in that level's own
// cells: BlockB / 2^level.
func (h *Hierarchy) UnitBlockSize(level int) int {
	return h.BlockB / h.Levels[level].Scale
}

// New creates a hierarchy skeleton with the given number of levels; all
// ownership is false and level data is zeroed. Dimensions must be multiples
// of blockB, blockB must be a power of two > 4, and blockB/2^(levels−1) must
// be ≥ 2 so the coarsest unit block is non-trivial.
func New(nx, ny, nz, blockB, levels int) (*Hierarchy, error) {
	if err := CheckBlockB(blockB); err != nil {
		return nil, err
	}
	if nx%blockB != 0 || ny%blockB != 0 || nz%blockB != 0 {
		return nil, fmt.Errorf("grid: dims %dx%dx%d not multiples of blockB %d", nx, ny, nz, blockB)
	}
	if levels < 1 {
		return nil, fmt.Errorf("grid: need at least one level")
	}
	if blockB>>(levels-1) < 2 {
		return nil, fmt.Errorf("grid: %d levels too deep for blockB %d", levels, blockB)
	}
	h := &Hierarchy{Nx: nx, Ny: ny, Nz: nz, BlockB: blockB}
	nbx, nby, nbz := nx/blockB, ny/blockB, nz/blockB
	nBlocks := nbx * nby * nbz
	for l := 0; l < levels; l++ {
		scale := 1 << l
		h.Levels = append(h.Levels, &Level{
			Index: l,
			Scale: scale,
			Data:  field.New(nx/scale, ny/scale, nz/scale),
			Owned: make([]bool, nBlocks),
		})
	}
	return h, nil
}

// CheckBlockB rejects a block edge that is not a power of two > 4.
func CheckBlockB(blockB int) error {
	if blockB < 8 || blockB&(blockB-1) != 0 {
		return fmt.Errorf("grid: blockB must be a power of two > 4, got %d", blockB)
	}
	return nil
}

// Validate checks the structural invariants: every block owned by exactly
// one level, consistent shapes.
func (h *Hierarchy) Validate() error {
	nbx, nby, nbz := h.NumBlocks()
	nBlocks := nbx * nby * nbz
	owners := make([]int, nBlocks)
	for li, lv := range h.Levels {
		if lv.Scale != 1<<li {
			return fmt.Errorf("grid: level %d has scale %d", li, lv.Scale)
		}
		if len(lv.Owned) != nBlocks {
			return fmt.Errorf("grid: level %d ownership length %d != %d", li, len(lv.Owned), nBlocks)
		}
		wantX, wantY, wantZ := h.Nx/lv.Scale, h.Ny/lv.Scale, h.Nz/lv.Scale
		if lv.Data.Nx != wantX || lv.Data.Ny != wantY || lv.Data.Nz != wantZ {
			return fmt.Errorf("grid: level %d data shape %v, want %dx%dx%d", li, lv.Data, wantX, wantY, wantZ)
		}
		for b, owned := range lv.Owned {
			if owned {
				owners[b]++
			}
		}
	}
	for b, c := range owners {
		if c != 1 {
			return fmt.Errorf("grid: block %d owned by %d levels", b, c)
		}
	}
	return nil
}

// Density returns the fraction of domain blocks owned by the given level —
// the "density" column of the paper's Table III.
func (h *Hierarchy) Density(level int) float64 {
	lv := h.Levels[level]
	return float64(lv.ownedCount()) / float64(len(lv.Owned))
}

// ownedCount returns the number of blocks the level owns.
func (lv *Level) ownedCount() int {
	k := 0
	for _, o := range lv.Owned {
		if o {
			k++
		}
	}
	return k
}

// PayloadSamples returns the number of stored samples across all levels
// (what actually needs compressing / storing).
func (h *Hierarchy) PayloadSamples() int {
	total := 0
	for l, lv := range h.Levels {
		u := h.UnitBlockSize(l)
		total += u * u * u * lv.ownedCount()
	}
	return total
}

// PayloadBytes returns PayloadSamples×8, the raw multi-resolution data size.
func (h *Hierarchy) PayloadBytes() int { return h.PayloadSamples() * 8 }

// SetBlockFromFine assigns ownership of block (bx,by,bz) to the given level
// and fills the level's samples for that block by mean-downsampling the
// corresponding region of the fine field. Any previous owner is cleared.
//
// Level 0 copies and level 1 downsamples straight into the level array. A
// deeper level is a chain of 2× means, not one 2ˡ× mean (the roundings
// differ), so all but its last halving go through the hierarchy's scratch
// block, alternating between its two z regions.
func (h *Hierarchy) SetBlockFromFine(level, bx, by, bz int, fine *field.Field) {
	bi := h.BlockIndex(bx, by, bz)
	for _, lv := range h.Levels {
		lv.Owned[bi] = false
	}
	lv := h.Levels[level]
	lv.Owned[bi] = true
	n, u := h.BlockB, h.UnitBlockSize(level)
	if level == 0 {
		field.CopyBlock(lv.Data, bx*u, by*u, bz*u, fine, bx*n, by*n, bz*n, n, n, n)
		return
	}
	src, sx, sy, sz := fine, bx*n, by*n, bz*n
	if level > 1 && h.scratch == nil {
		h.scratch = field.New(n/2, n/2, n/2+n/4)
	}
	tz := 0
	for n > 2*u {
		field.DownsampleBlock2(h.scratch, 0, 0, tz, src, sx, sy, sz, n, n, n)
		src, sx, sy, sz, n = h.scratch, 0, 0, tz, n/2
		tz = h.BlockB/2 - tz
	}
	field.DownsampleBlock2(lv.Data, bx*u, by*u, bz*u, src, sx, sy, sz, n, n, n)
}

// Flatten reconstructs a full fine-resolution field: owned fine blocks are
// copied, coarser blocks are trilinearly upsampled — the reconstruction used
// for visualization and post-analysis of multi-resolution data.
func (h *Hierarchy) Flatten() *field.Field {
	out := field.New(h.Nx, h.Ny, h.Nz)
	nbx, nby, nbz := h.NumBlocks()
	for l, lv := range h.Levels {
		u := h.UnitBlockSize(l)
		for bz := 0; bz < nbz; bz++ {
			for by := 0; by < nby; by++ {
				for bx := 0; bx < nbx; bx++ {
					if !lv.Owned[h.BlockIndex(bx, by, bz)] {
						continue
					}
					if l == 0 {
						field.CopyBlock(out, bx*u, by*u, bz*u, lv.Data, bx*u, by*u, bz*u, u, u, u)
						continue
					}
					b := lv.Data.SubBlock(bx*u, by*u, bz*u, u, u, u)
					for b.Nx < h.BlockB {
						b = b.Upsample2(b.Nx*2, b.Ny*2, b.Nz*2)
					}
					out.SetBlock(bx*h.BlockB, by*h.BlockB, bz*h.BlockB, b)
				}
			}
		}
	}
	return out
}

// OwnedBlocks returns the block coordinates owned by a level, in
// deterministic raster order (z, then y, then x).
func (h *Hierarchy) OwnedBlocks(level int) [][3]int {
	nbx, nby, nbz := h.NumBlocks()
	lv := h.Levels[level]
	out := make([][3]int, 0, lv.ownedCount())
	for bz := 0; bz < nbz; bz++ {
		for by := 0; by < nby; by++ {
			for bx := 0; bx < nbx; bx++ {
				if lv.Owned[h.BlockIndex(bx, by, bz)] {
					out = append(out, [3]int{bx, by, bz})
				}
			}
		}
	}
	return out
}

// Clone deep-copies the hierarchy.
func (h *Hierarchy) Clone() *Hierarchy {
	c := &Hierarchy{Nx: h.Nx, Ny: h.Ny, Nz: h.Nz, BlockB: h.BlockB}
	for _, lv := range h.Levels {
		nl := &Level{Index: lv.Index, Scale: lv.Scale, Data: lv.Data.Clone(), Owned: make([]bool, len(lv.Owned))}
		copy(nl.Owned, lv.Owned)
		c.Levels = append(c.Levels, nl)
	}
	return c
}

// BuildAMR constructs a hierarchy from a fine uniform field by the paper's
// range-threshold refinement criterion: blocks are ranked by value range and
// split across levels by the given fractions (fracs[l] = fraction of blocks
// owned by level l; fractions must sum to ~1). The highest-range blocks go
// to the finest level, mimicking how AMR refines regions of interest.
func BuildAMR(fine *field.Field, blockB int, fracs []float64) (*Hierarchy, error) {
	h, err := New(fine.Nx, fine.Ny, fine.Nz, blockB, len(fracs))
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, f := range fracs {
		if f < 0 {
			return nil, fmt.Errorf("grid: negative fraction %g", f)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		return nil, fmt.Errorf("grid: fractions sum to %g, want 1", sum)
	}
	nbx, nby, _ := h.NumBlocks()
	order := RankExtremes(BlockExtremes(fine, blockB))
	// Assign the top fracs[0] to level 0, next fracs[1] to level 1, …
	total := len(order)
	start := 0
	for l := range fracs {
		count := int(fracs[l]*float64(total) + 0.5)
		if l == len(fracs)-1 {
			count = total - start
		}
		if start+count > total {
			count = total - start
		}
		for i := start; i < start+count; i++ {
			bi := order[i]
			h.SetBlockFromFine(l, bi%nbx, bi/nbx%nby, bi/(nbx*nby), fine)
		}
		start += count
	}
	return h, nil
}

// BlockExtremes returns the field.BlockExtremes of each of f's blockB³
// blocks, in flat raster block order. f's dimensions must be multiples of
// blockB.
func BlockExtremes(f *field.Field, blockB int) (lo, hi []float64) {
	nbx, nby, nbz := f.Nx/blockB, f.Ny/blockB, f.Nz/blockB
	lo, hi = make([]float64, 0, nbx*nby*nbz), make([]float64, 0, nbx*nby*nbz)
	for bz := 0; bz < nbz; bz++ {
		for by := 0; by < nby; by++ {
			for bx := 0; bx < nbx; bx++ {
				l, h := f.BlockExtremes(bx*blockB, by*blockB, bz*blockB, blockB, blockB, blockB)
				lo, hi = append(lo, l), append(hi, h)
			}
		}
	}
	return lo, hi
}

// RankExtremes returns the flat raster indices of blocks ordered by the
// value range (max − min) their extremes (as BlockExtremes returns them)
// finish to, largest first, ties by index — the paper's range-threshold
// criterion, shared by BuildAMR and roi.Scan.
func RankExtremes(lo, hi []float64) []int {
	ranges := make([]float64, len(lo))
	for i := range ranges {
		l, h := field.FinishRange(lo[i], hi[i])
		ranges[i] = h - l
	}
	order := make([]int, len(ranges))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case ranges[a] > ranges[b]:
			return -1
		case ranges[a] < ranges[b]:
			return 1
		}
		return cmp.Compare(a, b)
	})
	return order
}
