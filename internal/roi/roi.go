// Package roi implements the paper's compression-oriented Region-of-Interest
// extraction (§III): converting uniform-grid data into multi-resolution
// ("adaptive") data by range thresholding.
//
// The field is partitioned into b³ blocks (b = 2ⁿ, n > 2). Each block's
// value range (max − min) is computed and the top x% of blocks are kept at
// full resolution (the ROI); the rest are stored 2×-downsampled. Following
// Kumar et al. [7], range thresholding is chosen for being lightweight yet
// effective — on Nyx it captures the over-density halos (Fig. 4).
package roi

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/layout"
)

// Options configures ROI extraction.
type Options struct {
	// BlockB is the block edge in fine cells (power of two > 4; default 16).
	BlockB int
	// TopFrac is the fraction of blocks kept at full resolution
	// (default 0.5, as in the paper; adjustable per application).
	TopFrac float64
}

// check applies the defaults and validates the options against f.
func (o *Options) check(f *field.Field) error {
	if o.BlockB == 0 {
		o.BlockB = 16
	}
	if o.TopFrac == 0 {
		o.TopFrac = 0.5
	}
	if !(o.TopFrac >= 0 && o.TopFrac <= 1) {
		return fmt.Errorf("roi: TopFrac %g out of [0,1]", o.TopFrac)
	}
	b := o.BlockB
	if f.Nx%b != 0 || f.Ny%b != 0 || f.Nz%b != 0 {
		return fmt.Errorf("roi: dims %dx%dx%d not multiples of block %d", f.Nx, f.Ny, f.Nz, b)
	}
	return grid.CheckBlockB(b)
}

// Selection is the outcome of the range scan over a uniform field: which
// blocks are kept at full resolution, and each block's extremes
// (field.BlockExtremes), which also give the value range of either level
// without building it.
type Selection struct {
	// BlockB is the block edge in fine cells.
	BlockB int
	// NBX, NBY, NBZ are the block-grid dimensions.
	NBX, NBY, NBZ int
	// Mask is true, per block (flat raster index), for ROI blocks (level 0);
	// the rest are level 1.
	Mask []bool
	// Lo and Hi are each block's extremes, as field.BlockExtremes gives them.
	Lo, Hi []float64
}

// Scan runs the ROI selection: one range scan of each block in place, then
// the ranking.
func Scan(f *field.Field, opt Options) (*Selection, error) {
	if err := opt.check(f); err != nil {
		return nil, err
	}
	b := opt.BlockB
	s := &Selection{BlockB: b, NBX: f.Nx / b, NBY: f.Ny / b, NBZ: f.Nz / b}
	s.Lo, s.Hi = grid.BlockExtremes(f, b)
	order := grid.RankExtremes(s.Lo, s.Hi)
	n := len(order)
	keep := int(opt.TopFrac*float64(n) + 0.5)
	s.Mask = make([]bool, n)
	for i := 0; i < keep; i++ {
		s.Mask[order[i]] = true
	}
	return s, nil
}

// Sources returns the two levels Convert would build from f, as layout
// sources reading f in place: level 0 copies the ROI blocks, level 1
// mean-downsamples the rest 2× per axis. Arranging them gives the buffers
// arranging Convert's hierarchy gives, without the hierarchy's dense
// full-domain arrays.
func (s *Selection) Sources(f *field.Field) []layout.Source {
	rest := make([]bool, len(s.Mask))
	for i, m := range s.Mask {
		rest[i] = !m
	}
	src := layout.Source{U: s.BlockB, NBX: s.NBX, NBY: s.NBY, NBZ: s.NBZ, Owned: s.Mask, Data: f}
	half := src
	half.U, half.Owned, half.Halve = s.BlockB/2, rest, true
	return []layout.Source{src, half}
}

// Convert turns a uniform field into a two-level adaptive hierarchy: ROI
// blocks at full resolution (level 0), the rest mean-downsampled 2× per axis
// (level 1) — grid.BuildAMR's split at fractions TopFrac and 1 − TopFrac.
func Convert(f *field.Field, opt Options) (*grid.Hierarchy, error) {
	if err := opt.check(f); err != nil {
		return nil, err
	}
	return grid.BuildAMR(f, opt.BlockB, []float64{opt.TopFrac, 1 - opt.TopFrac})
}

// ROIOnly returns a copy of f where non-ROI samples are replaced by the
// down-then-upsampled approximation — the "ROI extraction" visualization of
// Fig. 4 (ROI regions identical, background smoothed).
func ROIOnly(f *field.Field, opt Options) (*field.Field, error) {
	h, err := Convert(f, opt)
	if err != nil {
		return nil, err
	}
	return h.Flatten(), nil
}

// Stats summarizes an extraction: fraction of blocks kept and the fraction
// of raw samples retained (ROI at full rate + non-ROI at 1/8 rate).
type Stats struct {
	BlocksKept   float64 // fraction of blocks at full resolution
	SampleRatio  float64 // stored samples / original samples
	StorageRatio float64 // original bytes / stored bytes
}

// Measure computes extraction statistics for the given options.
func Measure(f *field.Field, opt Options) (Stats, error) {
	h, err := Convert(f, opt)
	if err != nil {
		return Stats{}, err
	}
	kept := h.Density(0)
	samples := float64(h.PayloadSamples()) / float64(f.Len())
	return Stats{BlocksKept: kept, SampleRatio: samples, StorageRatio: 1 / samples}, nil
}
