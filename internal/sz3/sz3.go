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
//
// The arrays a stream needs while it is coded — the reconstruction, the
// codes, the escaped samples, the error-bound table, the Huffman output and
// the payload before DEFLATE — come from a sync.Pool shared by every caller,
// so in steady state Compress allocates only the growth of dst and
// Decompress only the field it returns (nothing when dst is reused). They
// are never cleared: the sweep writes every sample, seed point first, before
// any prediction reads it, which is also why a decode may run over a reused
// destination holding anything (TestPooledScratch). A scratch whose arrays
// total more than maxPooledBytes (32 MiB: a whole 128³ level's
// reconstruction and codes fit) is dropped, not pooled. The pool therefore
// retains at most 32 MiB for each stream coded at the busiest moment, and
// no longer than two garbage collections: one moves what it holds to the
// victim cache, the next frees it.
package sz3

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

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

// scratch is the working memory of one stream. Each array keeps its
// capacity from stream to stream and is resized, not cleared: every user
// writes an element before it reads it.
type scratch struct {
	recon    []float64 // encode: the reconstruction predictions read
	codes    []int32   // one quantization code per sample, in visit order
	outliers []float64 // escaped samples, in visit order
	ebTable  []float64 // per-level bounds, [0] the seed's
	entropy  []byte    // encode: the Huffman-coded codes
	payload  []byte    // encode: the stream before DEFLATE
}

// maxPooledBytes caps what a pooled scratch may keep: a 128³ level needs
// 24 MiB of reconstruction and codes, so one larger stream does not pin its
// arrays in the pool.
const maxPooledBytes = 32 << 20

var pool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return pool.Get().(*scratch) }

func putScratch(s *scratch) {
	if s.bytes() <= maxPooledBytes {
		pool.Put(s)
	}
}

// bytes is the memory s keeps.
func (s *scratch) bytes() int {
	return 8*(cap(s.recon)+cap(s.outliers)+cap(s.ebTable)) + 4*cap(s.codes) + cap(s.entropy) + cap(s.payload)
}

// resize returns a slice of length n, reusing s's array when it is large
// enough. The elements are whatever s held: callers overwrite them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Codes runs the prediction + quantization stage only and returns the raw
// quantization-code stream that Compress would entropy-code. It exists so the
// entropy stage can be benchmarked on realistic code distributions (see
// BenchmarkHuffmanDecode and the huffman.* rows of bench/run.sh). The slice
// is the caller's: it is coded on fresh arrays, not pooled ones.
func Codes(f *field.Field, opt Options) ([]int32, error) {
	ebTable, maxLevel, err := buildEBTable(nil, f, opt)
	if err != nil {
		return nil, err
	}
	codes, _ := encodeCore(f, opt.Interp, ebTable, maxLevel, make([]float64, len(f.Data)), make([]int32, len(f.Data)), nil)
	return codes, nil
}

// buildEBTable validates opt and materializes the per-level error bounds
// into dst, resized.
func buildEBTable(dst []float64, f *field.Field, opt Options) ([]float64, int, error) {
	if !(opt.EB > 0) {
		return nil, 0, errors.New("sz3: error bound must be positive")
	}
	maxLevel := MaxLevelFor(f.Nx, f.Ny, f.Nz)
	ebTable := resize(dst, maxLevel+1) // index by level, [1..maxLevel]; [0] = seed
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
	s := getScratch()
	defer putScratch(s)
	return s.compress(dst, f, opt)
}

func (s *scratch) compress(dst []byte, f *field.Field, opt Options) ([]byte, error) {
	ebTable, maxLevel, err := buildEBTable(s.ebTable, f, opt)
	if err != nil {
		return nil, err
	}
	s.ebTable = ebTable
	n := len(f.Data)
	s.recon, s.codes = resize(s.recon, n), resize(s.codes, n)
	codes, outliers := encodeCore(f, opt.Interp, ebTable, maxLevel, s.recon, s.codes, s.outliers[:0])
	s.outliers = outliers
	s.entropy = huffman.AppendEncode(s.entropy[:0], codes)
	s.payload = appendPayload(s.payload[:0], f.Nx, f.Ny, f.Nz, opt.Interp, ebTable, s.entropy, outliers)
	return flatepool.Deflate(dst, s.payload)
}

// appendPayload appends a stream before DEFLATE to p: header | eb table |
// huffman codes | outliers. hb is the entropy-coded code stream.
func appendPayload(p []byte, nx, ny, nz int, interp Interpolant, ebTable []float64, hb []byte, outliers []float64) []byte {
	p = slices.Grow(p, len(magic)+1+5*binary.MaxVarintLen64+8*len(ebTable)+len(hb)+8*len(outliers))
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
	return p
}

// Decompress decodes a buffer produced by Compress into dst, reshaped
// (field.Reuse; nil for a new field), and returns it.
func Decompress(dst *field.Field, data []byte) (*field.Field, error) {
	s := getScratch()
	defer putScratch(s)
	return s.decompress(dst, data)
}

func (s *scratch) decompress(dst *field.Field, data []byte) (*field.Field, error) {
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
	s.ebTable = resize(s.ebTable, maxLevel+1)
	ebTable := s.ebTable
	for i := range ebTable {
		if ebTable[i] = r.Float64(); !(ebTable[i] > 0) {
			return nil, errors.New("sz3: truncated or invalid eb table")
		}
	}
	hb := r.Chunk()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sz3: code stream: %w", err)
	}
	codes, err := huffman.AppendDecode(s.codes[:0], hb)
	if err != nil {
		return nil, err
	}
	s.codes = codes
	s.outliers = resize(s.outliers, int(r.Uvarint(uint64(r.Len())/8)))
	outliers := s.outliers
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
