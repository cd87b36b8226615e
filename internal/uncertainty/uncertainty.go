// Package uncertainty implements the paper's uncertainty-visualization stage
// (§III-C): treating decompressed data as uncertain data whose per-voxel
// error follows a normal distribution, and running probabilistic marching
// cubes (Pöthkow et al. 2011; Athawale et al. 2021) to compute, per cell,
// the probability that the isosurface crosses it.
//
// The error distribution's mean and variance come from the compression-error
// samples already collected for post-processing (reused at no extra cost, as
// in Fig. 3 of the paper), optionally conditioned on voxels near the
// isovalue (isovalue-related variance).
package uncertainty

import (
	"errors"
	"math"

	"repro/internal/field"
	"repro/internal/mcubes"
	"repro/internal/postproc"
)

// ErrorModel is the per-voxel normal error model: the true value at a voxel
// with decompressed value d is modeled as N(d + Mean, StdDev²).
type ErrorModel struct {
	Mean   float64
	StdDev float64
}

// ModelFromSamples builds an error model from the post-processing sample
// set, using all sampled voxels.
func ModelFromSamples(s *postproc.SampleSet) ErrorModel {
	mean, variance := s.ErrorStats()
	return ErrorModel{Mean: mean, StdDev: math.Sqrt(variance)}
}

// ModelNearIsovalue builds an isovalue-conditioned error model: only voxels
// whose decompressed value lies within window of iso contribute, since those
// are the voxels that decide isosurface topology. Falls back to the global
// model when too few voxels qualify.
func ModelNearIsovalue(s *postproc.SampleSet, iso, window float64) ErrorModel {
	mean, variance, count := s.ErrorStatsNearIsovalue(iso, window)
	if count < 16 {
		return ModelFromSamples(s)
	}
	return ErrorModel{Mean: mean, StdDev: math.Sqrt(variance)}
}

// phi is the standard normal CDF.
func phi(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

// VertexAboveProb returns P(true value ≥ iso) for a voxel with decompressed
// value d under the model. With zero variance it degenerates to a step.
func (m ErrorModel) VertexAboveProb(d, iso float64) float64 {
	mu := d + m.Mean
	if m.StdDev == 0 {
		if mu >= iso {
			return 1
		}
		return 0
	}
	return 1 - phi((iso-mu)/m.StdDev)
}

// CrossProbabilities computes, per cell, the probability that the
// isosurface crosses it under the independent-Gaussian model:
//
//	P(cross) = 1 − P(all 8 corners above) − P(all 8 corners below).
//
// The result is a cell-centered field of shape (Nx−1)×(Ny−1)×(Nz−1).
func CrossProbabilities(decomp *field.Field, iso float64, m ErrorModel) (*field.Field, error) {
	cx, cy, cz := decomp.Nx-1, decomp.Ny-1, decomp.Nz-1
	if cx <= 0 || cy <= 0 || cz <= 0 {
		return nil, errors.New("uncertainty: field too small for cells")
	}
	// Precompute per-voxel above-probabilities.
	pAbove := make([]float64, decomp.Len())
	for i, d := range decomp.Data {
		pAbove[i] = m.VertexAboveProb(d, iso)
	}
	out := field.New(cx, cy, cz)
	idx := func(x, y, z int) int { return x + decomp.Nx*(y+decomp.Ny*z) }
	for z := 0; z < cz; z++ {
		for y := 0; y < cy; y++ {
			for x := 0; x < cx; x++ {
				allAbove, allBelow := 1.0, 1.0
				for dz := 0; dz < 2; dz++ {
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							p := pAbove[idx(x+dx, y+dy, z+dz)]
							allAbove *= p
							allBelow *= 1 - p
						}
					}
				}
				out.Set(x, y, z, 1-allAbove-allBelow)
			}
		}
	}
	return out, nil
}

// FeatureRecovery quantifies Fig. 14's qualitative claim. Comparing
// isosurface cells of the original and decompressed fields:
//
//   - Lost counts cells crossed in the original but not after decompression
//     (features pruned by compression error);
//   - Recovered counts lost cells whose crossing probability exceeds
//     probThreshold — features the uncertainty visualization re-surfaces;
//   - Spurious counts cells crossed only after decompression.
type FeatureRecovery struct {
	OrigCells   int
	DecompCells int
	Lost        int
	Recovered   int
	Spurious    int
}

// RecoveryRate returns Recovered/Lost (1 if nothing was lost).
func (r FeatureRecovery) RecoveryRate() float64 {
	if r.Lost == 0 {
		return 1
	}
	return float64(r.Recovered) / float64(r.Lost)
}

// AnalyzeRecovery computes FeatureRecovery for an isovalue, an error model,
// and a probability threshold.
func AnalyzeRecovery(orig, decomp *field.Field, iso float64, m ErrorModel, probThreshold float64) (FeatureRecovery, error) {
	var r FeatureRecovery
	if !orig.SameShape(decomp) {
		return r, errors.New("uncertainty: shape mismatch")
	}
	origMask, origCount := mcubes.CrossingCells(orig, iso)
	decMask, decCount := mcubes.CrossingCells(decomp, iso)
	probs, err := CrossProbabilities(decomp, iso, m)
	if err != nil {
		return r, err
	}
	r.OrigCells, r.DecompCells = origCount, decCount
	for i := range origMask {
		switch {
		case origMask[i] && !decMask[i]:
			r.Lost++
			if probs.Data[i] > probThreshold {
				r.Recovered++
			}
		case !origMask[i] && decMask[i]:
			r.Spurious++
		}
	}
	return r, nil
}
