// Package postproc implements the paper's error-bounded adaptive
// post-processing for block-wise compressors (§III-B).
//
// Block-wise compressors (SZ2, ZFP) lose spatial information at block
// boundaries, producing blocking artifacts. For each block-boundary sample
// d₄ the post-processor builds a quadratic Bézier curve through its in-block
// neighbor d₃ and its cross-block neighbor d₅ (d₄ as control point),
// evaluates B(0.5) = 0.25·d₃ + 0.5·d₄ + 0.25·d₅, and moves d₄ toward it —
// clamped to ±aᵢ·eb (along dimension i) around the decompressed value, so
// the result stays within (1+max aᵢ)·eb of the original data. The
// intensity a < 1 is chosen per dimension by compressing a ≤1.5% sample of
// the data and running stochastic gradient descent over the paper's
// candidate sets (SZ2: 0.05…0.5, ZFP: 0.005…0.05).
package postproc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/field"
)

// CurveKind selects the smoothing curve. The paper uses the quadratic
// Bézier; its future work (§V) proposes exploring alternatives, so a 4-point
// cubic interpolant is provided as well.
type CurveKind byte

const (
	// QuadBezier evaluates B(0.5) = 0.25·d₋₁ + 0.5·d₀ + 0.25·d₊₁ — the
	// paper's curve (d₀ itself is the control point).
	QuadBezier CurveKind = iota
	// Cubic4 replaces d₀ with the 4-point cubic interpolation of its
	// neighbors, (−d₋₂ + 9·d₋₁ + 9·d₊₁ − d₊₂)/16, falling back to
	// QuadBezier where ±2 neighbors do not exist.
	Cubic4
)

// Options configures post-processing.
type Options struct {
	// EB is the error bound the compressor was run with (> 0).
	EB float64
	// BlockSize is the compressor's block edge: 4 for ZFP, the SZ2 block
	// size, or the unit block size for partitioned multi-resolution SZ3.
	BlockSize int
	// Curve selects the smoothing curve (default QuadBezier).
	Curve CurveKind
	// Candidates is the intensity candidate set. Defaults to SZ2Candidates.
	Candidates []float64
	// SampleFrac is the target sampling rate for intensity selection
	// (default 0.015, the paper's "below 1.5%").
	SampleFrac float64
	// SampleBlockMul is j in the paper's (j·blocksize)³ sample regions
	// (default 2).
	SampleBlockMul int
	// Seed makes sampling deterministic (0 = fixed default seed).
	Seed int64
}

func (o *Options) withDefaults() Options {
	v := *o
	if v.Candidates == nil {
		v.Candidates = SZ2Candidates()
	}
	if v.SampleFrac == 0 {
		v.SampleFrac = 0.015
	}
	if v.SampleBlockMul == 0 {
		v.SampleBlockMul = 2
	}
	if v.Seed == 0 {
		v.Seed = 20240267
	}
	return v
}

// SZ2Candidates returns the paper's intensity candidates for SZ2
// ({0.05, 0.10, …, 0.50}).
func SZ2Candidates() []float64 {
	c := make([]float64, 10)
	for i := range c {
		c[i] = 0.05 * float64(i+1)
	}
	return c
}

// ZFPCandidates returns the paper's intensity candidates for ZFP
// ({0.005, 0.010, …, 0.050}); smaller because ZFP's real maximum error is
// well below its tolerance (underestimation characteristic).
func ZFPCandidates() []float64 {
	c := make([]float64, 10)
	for i := range c {
		c[i] = 0.005 * float64(i+1)
	}
	return c
}

// Intensity is the per-dimension post-processing intensity a.
type Intensity [3]float64

// Uniform returns the same intensity for all three dimensions.
func Uniform(a float64) Intensity { return Intensity{a, a, a} }

// Process returns a post-processed copy of the decompressed field: every
// block-boundary sample is moved toward its quadratic Bézier midpoint,
// clamped to ±aᵢ·eb (per dimension i) around its decompressed value.
//
// Both faces of each block boundary are processed (the last sample of one
// block and the first of the next), one dimension at a time; the clamp is
// always relative to the original decompressed value, so the total deviation
// introduced along dimension i never exceeds aᵢ·eb and the result stays
// within (1+max aᵢ)·eb of the original data.
func Process(decomp *field.Field, a Intensity, opt Options) *field.Field {
	opt = (&opt).withDefaults()
	out := decomp.Clone()
	ref := decomp // clamp reference: the unprocessed decompressed values
	processAxis(out, ref, 0, a[0]*opt.EB, opt.BlockSize, opt.Curve)
	processAxis(out, ref, 1, a[1]*opt.EB, opt.BlockSize, opt.Curve)
	processAxis(out, ref, 2, a[2]*opt.EB, opt.BlockSize, opt.Curve)
	return out
}

// processAxis smooths boundary samples along one axis in place.
func processAxis(f, ref *field.Field, axis int, limit float64, bs int, curve CurveKind) {
	if limit <= 0 || bs < 2 {
		return
	}
	var n int
	switch axis {
	case 0:
		n = f.Nx
	case 1:
		n = f.Ny
	default:
		n = f.Nz
	}
	if n <= bs {
		return // single block: no boundaries along this axis
	}
	// Boundary positions: p = bs−1, 2bs−1, … (last of block) and the first
	// sample of the following block p+1.
	for p := bs - 1; p+1 < n; p += bs {
		smoothPlane(f, ref, axis, p, limit, curve)
		smoothPlane(f, ref, axis, p+1, limit, curve)
	}
}

// smoothPlane applies the curve update to every sample with the given
// coordinate along axis, using neighbors at ±1 (and ±2 for Cubic4) along
// that axis.
func smoothPlane(f, ref *field.Field, axis, p int, limit float64, curve CurveKind) {
	nx, ny, nz := f.Nx, f.Ny, f.Nz
	var dim int
	switch axis {
	case 0:
		dim = nx
	case 1:
		dim = ny
	default:
		dim = nz
	}
	if p-1 < 0 || p+1 >= dim {
		return
	}
	cubic := curve == Cubic4 && p-2 >= 0 && p+2 < dim
	// update smooths the sample whose axis coordinate is p; at returns the
	// current value at coordinate p+off along the axis.
	update := func(i int, at func(off int) float64) {
		var b float64
		if cubic {
			b = (-at(-2) + 9*at(-1) + 9*at(1) - at(2)) / 16
		} else {
			b = 0.25*at(-1) + 0.5*f.Data[i] + 0.25*at(1)
		}
		d := ref.Data[i]
		if b > d+limit {
			b = d + limit
		} else if b < d-limit {
			b = d - limit
		}
		f.Data[i] = b
	}
	switch axis {
	case 0:
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				i := f.Index(p, y, z)
				update(i, func(off int) float64 { return f.Data[i+off] })
			}
		}
	case 1:
		for z := 0; z < nz; z++ {
			for x := 0; x < nx; x++ {
				i := f.Index(x, p, z)
				update(i, func(off int) float64 { return f.Data[i+off*nx] })
			}
		}
	default:
		stride := nx * ny
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := f.Index(x, y, p)
				update(i, func(off int) float64 { return f.Data[i+off*stride] })
			}
		}
	}
}

// Sample is one sampled region with its original and round-tripped data.
type Sample struct {
	Orig, Decomp *field.Field
}

// SampleSet is the collection of sampled regions used both to select the
// post-processing intensity and (reused, §III-C) to model the compression
// error distribution for uncertainty visualization.
type SampleSet struct {
	Samples []Sample
	opt     Options
}

// RoundTrip compresses and decompresses a field at the working error bound;
// callers supply their compressor of choice.
type RoundTrip func(*field.Field) (*field.Field, error)

// CollectSamples draws sample regions of size (j·blocksize)³ from the field
// at a rate ≤ opt.SampleFrac, round-trips each through the compressor, and
// returns the pairs. Regions are aligned to block boundaries so the sampled
// artifacts match the full-field compression.
func CollectSamples(f *field.Field, rt RoundTrip, opt Options) (*SampleSet, error) {
	opt = (&opt).withDefaults()
	if opt.EB <= 0 {
		return nil, errors.New("postproc: error bound must be positive")
	}
	if opt.BlockSize < 2 {
		return nil, fmt.Errorf("postproc: block size %d too small", opt.BlockSize)
	}
	side := opt.SampleBlockMul * opt.BlockSize
	if side > f.Nx {
		side = f.Nx
	}
	if side > f.Ny {
		side = f.Ny
	}
	if side > f.Nz {
		side = f.Nz
	}
	if side < 2 {
		return nil, errors.New("postproc: field too small to sample")
	}
	perSample := side * side * side
	maxSamples := int(opt.SampleFrac * float64(f.Len()) / float64(perSample))
	// On large fields the ≤1.5% rate dominates; on small fields a handful
	// of regions is required for the intensity fit to be representative
	// (the rate bound is about overhead, which is negligible there).
	const minSamples = 8
	if maxSamples < minSamples {
		maxSamples = minSamples
	}
	// Candidate origins aligned to the block grid.
	bx := alignedOrigins(f.Nx, side, opt.BlockSize)
	by := alignedOrigins(f.Ny, side, opt.BlockSize)
	bz := alignedOrigins(f.Nz, side, opt.BlockSize)
	type origin struct{ x, y, z int }
	var origins []origin
	for _, z := range bz {
		for _, y := range by {
			for _, x := range bx {
				origins = append(origins, origin{x, y, z})
			}
		}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	rng.Shuffle(len(origins), func(i, j int) { origins[i], origins[j] = origins[j], origins[i] })
	if len(origins) > maxSamples {
		origins = origins[:maxSamples]
	}
	set := &SampleSet{opt: opt}
	for _, o := range origins {
		orig := f.SubBlock(o.x, o.y, o.z, side, side, side)
		dec, err := rt(orig)
		if err != nil {
			return nil, fmt.Errorf("postproc: sampling round trip: %w", err)
		}
		if !orig.SameShape(dec) {
			return nil, errors.New("postproc: round trip changed shape")
		}
		set.Samples = append(set.Samples, Sample{Orig: orig, Decomp: dec})
	}
	return set, nil
}

func alignedOrigins(n, side, bs int) []int {
	var out []int
	for x := 0; x+side <= n; x += bs {
		out = append(out, x)
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out
}

// FindIntensity selects the per-dimension intensity a minimizing the L2
// error of the processed samples against the originals, by mini-batch
// stochastic descent over the candidate set: starting from the middle
// candidate, each iteration evaluates the current index and its neighbors on
// a random batch of samples and moves downhill, stopping when stable.
func (s *SampleSet) FindIntensity() Intensity {
	opt := s.opt
	var a Intensity
	if len(s.Samples) == 0 || len(opt.Candidates) == 0 {
		return a
	}
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	for axis := 0; axis < 3; axis++ {
		a[axis] = s.descendAxis(axis, rng)
	}
	// Joint guard: the per-axis descents optimize each dimension in
	// isolation, but Process applies all three sequentially. Accept the
	// combined intensity only if it clearly improves the full sampled
	// objective (0.5% margin); otherwise fall back to no processing — the
	// paper's conservative behaviour when there is little to gain.
	if a != (Intensity{}) {
		base := s.fullError(Intensity{})
		proc := s.fullError(a)
		if proc >= 0.995*base {
			return Intensity{}
		}
	}
	return a
}

// fullError is the total squared error of all samples after processing with
// the complete intensity vector.
func (s *SampleSet) fullError(a Intensity) float64 {
	sum := 0.0
	for i := range s.Samples {
		sm := s.Samples[i]
		proc := sm.Decomp
		if a != (Intensity{}) {
			proc = Process(sm.Decomp, a, s.opt)
		}
		for j, v := range proc.Data {
			d := v - sm.Orig.Data[j]
			sum += d * d
		}
	}
	return sum
}

// descendAxis runs the discrete SGD for one dimension.
func (s *SampleSet) descendAxis(axis int, rng *rand.Rand) float64 {
	cand := s.opt.Candidates
	idx := len(cand) / 2
	stable := 0
	batchSize := len(s.Samples)/2 + 1
	for iter := 0; iter < 8 && stable < 2; iter++ {
		batch := s.randomBatch(batchSize, rng)
		best, bestErr := idx, math.Inf(1)
		for _, j := range []int{idx - 1, idx, idx + 1} {
			if j < 0 || j >= len(cand) {
				continue
			}
			e := s.batchError(batch, axis, cand[j])
			if e < bestErr {
				best, bestErr = j, e
			}
		}
		if best == idx {
			stable++
		} else {
			stable = 0
			idx = best
		}
	}
	// Guard: only keep the intensity if it does not hurt on the full sample
	// set (the paper's conservative behaviour at low compression ratios).
	if s.batchError(s.allIndices(), axis, cand[idx]) >= s.batchError(s.allIndices(), axis, 0) {
		return 0
	}
	return cand[idx]
}

func (s *SampleSet) randomBatch(n int, rng *rand.Rand) []int {
	if n >= len(s.Samples) {
		return s.allIndices()
	}
	idx := rng.Perm(len(s.Samples))[:n]
	return idx
}

func (s *SampleSet) allIndices() []int {
	idx := make([]int, len(s.Samples))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// batchError returns the summed squared error after processing the given
// samples along one axis with intensity a.
func (s *SampleSet) batchError(batch []int, axis int, a float64) float64 {
	var ia Intensity
	ia[axis] = a
	sum := 0.0
	for _, i := range batch {
		sm := s.Samples[i]
		proc := Process(sm.Decomp, ia, s.opt)
		for j, v := range proc.Data {
			d := v - sm.Orig.Data[j]
			sum += d * d
		}
	}
	return sum
}

// ErrorStats estimates the mean and variance of the compression error
// (orig − decomp) over all sampled voxels. Used by the uncertainty stage.
func (s *SampleSet) ErrorStats() (mean, variance float64) {
	n := 0
	for _, sm := range s.Samples {
		for i, v := range sm.Orig.Data {
			mean += v - sm.Decomp.Data[i]
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	mean /= float64(n)
	for _, sm := range s.Samples {
		for i, v := range sm.Orig.Data {
			d := (v - sm.Decomp.Data[i]) - mean
			variance += d * d
		}
	}
	variance /= float64(n)
	return mean, variance
}

// ErrorStatsNearIsovalue estimates the error distribution using only voxels
// whose decompressed value lies within window of the isovalue — the paper's
// isovalue-related variance (§III-C), which better reflects the uncertainty
// of the voxels that decide isosurface topology.
func (s *SampleSet) ErrorStatsNearIsovalue(isovalue, window float64) (mean, variance float64, count int) {
	for _, sm := range s.Samples {
		for i, v := range sm.Orig.Data {
			if math.Abs(sm.Decomp.Data[i]-isovalue) <= window {
				mean += v - sm.Decomp.Data[i]
				count++
			}
		}
	}
	if count == 0 {
		return 0, 0, 0
	}
	mean /= float64(count)
	for _, sm := range s.Samples {
		for i, v := range sm.Orig.Data {
			if math.Abs(sm.Decomp.Data[i]-isovalue) <= window {
				d := (v - sm.Decomp.Data[i]) - mean
				variance += d * d
			}
		}
	}
	variance /= float64(count)
	return mean, variance, count
}
