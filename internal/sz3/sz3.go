// Package sz3 implements a global, interpolation-based, error-bounded lossy
// compressor for 3D floating-point fields, modeled after SZ3 (Zhao et al.,
// ICDE 2021; Liang et al.). It is the substrate the paper's SZ3MR
// optimizations (padding, per-level adaptive error bounds) are built on.
//
// Compression proceeds level by level over strides s = 2ᵏ, …, 2, 1. The
// point grid at stride 2s is already reconstructed; the grid at stride s is
// filled dimension-by-dimension, predicting each new point from its two (or
// four, for cubic) reconstructed neighbors at distance s along the current
// axis, falling back to linear extrapolation at the domain boundary — the
// behaviour §III-A of the paper analyzes and improves with padding.
// Prediction residuals are quantized under the (possibly per-level) error
// bound and entropy coded with canonical Huffman; escaped outliers are stored
// verbatim. The whole payload is wrapped in DEFLATE (standing in for SZ3's
// zstd stage).
//
// The sweep over the points (kernels.go) is organised by what is constant
// along a row, not per sample: how a point is predicted depends only on its
// coordinate on the pass axis, so each axis pass hands whole rows — n points
// a fixed step apart, neighbours a fixed distance away — to one of four
// small kernels (linear, cubic, extrapolated, constant), which predict,
// quantize and reconstruct (or predict and dequantize) in a single loop.
// The visit order and every floating-point expression are those of the
// per-sample formulation the kernels replaced, which survives in
// kernels_test.go as the reference they are compared against bit for bit;
// streams are therefore byte-identical to every earlier version.
package sz3

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/flatepool"
	"repro/internal/huffman"
	"repro/internal/wire"
)

// Interpolant selects the prediction spline.
type Interpolant byte

const (
	// Linear predicts the midpoint as the average of the two stride-s
	// neighbors (the paper's running example).
	Linear Interpolant = iota
	// Cubic uses the 4-point cubic spline weights (−1, 9, 9, −1)/16 when all
	// four neighbors exist, falling back to Linear at boundaries.
	Cubic
)

// Options configures compression.
type Options struct {
	// EB is the absolute error bound (> 0).
	EB float64
	// Interp selects the interpolation spline (default Linear).
	Interp Interpolant
	// LevelEB, if non-nil, returns the error bound to use at interpolation
	// level l ∈ [1, maxLevel], where maxLevel is the finest (stride-1) level.
	// The paper's SZ3MR adaptive bound is
	//   eb_l = eb / min(α^(maxLevel−l), β).
	// If nil, EB is used at every level.
	LevelEB func(level, maxLevel int) float64
}

// AdaptiveLevelEB returns a LevelEB implementing the paper's SZ3MR rule with
// the given α and β (the paper fixes α = 2.25, β = 8 for multi-resolution
// data, more aggressive than QoZ's tuned values).
func AdaptiveLevelEB(eb, alpha, beta float64) func(level, maxLevel int) float64 {
	return func(level, maxLevel int) float64 {
		f := math.Pow(alpha, float64(maxLevel-level))
		if f > beta {
			f = beta
		}
		return eb / f
	}
}

const magic = "SZ3G"

// MaxLevelFor returns the number of interpolation levels used for the given
// dimensions: the smallest L with 2ᴸ ≥ max(nx, ny, nz).
func MaxLevelFor(nx, ny, nz int) int {
	maxDim := nx
	if ny > maxDim {
		maxDim = ny
	}
	if nz > maxDim {
		maxDim = nz
	}
	l := 0
	for s := 1; s < maxDim; s <<= 1 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// Codes runs the prediction + quantization stage only and returns the raw
// quantization-code stream that Compress would entropy-code. It exists so the
// entropy stage can be benchmarked on realistic code distributions (see
// BenchmarkHuffmanDecode and the huffman.* rows of bench/run.sh).
func Codes(f *field.Field, opt Options) ([]int32, error) {
	ebTable, maxLevel, err := buildEBTable(f, opt)
	if err != nil {
		return nil, err
	}
	codes, _ := encodeCore(f, opt.Interp, ebTable, maxLevel)
	return codes, nil
}

// buildEBTable validates opt and materializes the per-level error bounds.
func buildEBTable(f *field.Field, opt Options) ([]float64, int, error) {
	if !(opt.EB > 0) {
		return nil, 0, errors.New("sz3: error bound must be positive")
	}
	maxLevel := MaxLevelFor(f.Nx, f.Ny, f.Nz)
	ebTable := make([]float64, maxLevel+1) // index by level, [1..maxLevel]; [0] = seed
	for l := 1; l <= maxLevel; l++ {
		if opt.LevelEB != nil {
			ebTable[l] = opt.LevelEB(l, maxLevel)
		} else {
			ebTable[l] = opt.EB
		}
		if !(ebTable[l] > 0) {
			return nil, 0, fmt.Errorf("sz3: non-positive level eb at level %d", l)
		}
	}
	ebTable[0] = ebTable[1]
	return ebTable, maxLevel, nil
}

// Compress encodes the field under opt and appends the stream to dst (nil
// for a new buffer), as flatepool.Deflate does.
func Compress(dst []byte, f *field.Field, opt Options) ([]byte, error) {
	ebTable, maxLevel, err := buildEBTable(f, opt)
	if err != nil {
		return nil, err
	}
	codes, outliers := encodeCore(f, opt.Interp, ebTable, maxLevel)
	return pack(dst, f.Nx, f.Ny, f.Nz, opt.Interp, ebTable, huffman.Encode(codes), outliers)
}

// pack serializes a stream: header | eb table | huffman codes | outliers,
// then DEFLATE, appended to dst. hb is the entropy-coded code stream.
func pack(dst []byte, nx, ny, nz int, interp Interpolant, ebTable []float64, hb []byte, outliers []float64) ([]byte, error) {
	p := make([]byte, 0, len(magic)+1+5*binary.MaxVarintLen64+8*len(ebTable)+len(hb)+8*len(outliers))
	p = append(p, magic...)
	p = append(p, byte(interp))
	p = binary.AppendUvarint(p, uint64(nx))
	p = binary.AppendUvarint(p, uint64(ny))
	p = binary.AppendUvarint(p, uint64(nz))
	p = binary.AppendUvarint(p, uint64(len(ebTable)-1)) // maxLevel
	for _, eb := range ebTable {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(eb))
	}
	p = append(binary.AppendUvarint(p, uint64(len(hb))), hb...)
	p = binary.AppendUvarint(p, uint64(len(outliers)))
	for _, v := range outliers {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
	}
	return flatepool.Deflate(dst, p)
}

// Decompress decodes a buffer produced by Compress into dst, reshaped
// (field.Reuse; nil for a new field), and returns it.
func Decompress(dst *field.Field, data []byte) (*field.Field, error) {
	inflated, err := flatepool.Inflate(data)
	if err != nil {
		return nil, fmt.Errorf("sz3: inflate: %w", err)
	}
	// Everything below copies what it keeps out of the pooled payload.
	defer inflated.Release()
	r := wire.NewReader(inflated.Bytes())
	if string(r.Bytes(len(magic))) != magic {
		return nil, errors.New("sz3: bad magic")
	}
	interp := Interpolant(r.Byte())
	nx, ny, nz := r.Dims()
	maxLevel := int(r.Uvarint(62))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sz3: header: %w", err)
	}
	if maxLevel != MaxLevelFor(nx, ny, nz) {
		return nil, errors.New("sz3: inconsistent level count")
	}
	ebTable := make([]float64, maxLevel+1)
	for i := range ebTable {
		if ebTable[i] = r.Float64(); !(ebTable[i] > 0) {
			return nil, errors.New("sz3: truncated or invalid eb table")
		}
	}
	hb := r.Chunk()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sz3: code stream: %w", err)
	}
	codes, err := huffman.Decode(hb)
	if err != nil {
		return nil, err
	}
	outliers := make([]float64, r.Uvarint(uint64(r.Len())/8))
	for i := range outliers {
		outliers[i] = r.Float64()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sz3: outliers: %w", err)
	}
	if len(codes) != nx*ny*nz {
		return nil, fmt.Errorf("sz3: code count %d does not match %dx%dx%d", len(codes), nx, ny, nz)
	}
	return decodeCore(field.Reuse(dst, nx, ny, nz), interp, ebTable, maxLevel, codes, outliers)
}

// initialStride returns the starting stride: the smallest power of two ≥
// max dimension, so that the origin is the only known point initially.
func initialStride(nx, ny, nz int) int {
	maxDim := nx
	if ny > maxDim {
		maxDim = ny
	}
	if nz > maxDim {
		maxDim = nz
	}
	s := 1
	for s < maxDim {
		s <<= 1
	}
	return s
}

// levelIndex clamps the running level counter into the eb table range (the
// counter can exceed maxLevel only if dims disagree, which Decompress
// rejects, but clamping keeps encodeCore robust for any input).
func levelIndex(level, maxLevel int) int {
	if level > maxLevel {
		return maxLevel
	}
	return level
}
