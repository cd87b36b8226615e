// Package sz2 implements a block-wise, error-bounded lossy compressor
// modeled after SZ2 (Tao et al., IPDPS 2017; Liang et al., BigData 2018).
//
// The field is partitioned into cubic blocks (6³ by default; the paper uses
// 4³ for multi-resolution data, following AMRIC). Each block is predicted
// either by the 3D Lorenzo predictor (using previously reconstructed
// neighbors, which may cross block boundaries in raster order) or by a
// block-local linear regression plane (coefficients quantized and stored),
// whichever yields the smaller squared error on the original samples.
// Residuals are quantized under the absolute error bound and entropy coded.
//
// The block-local regression mode is what produces the blocking artifacts
// discussed in §III-B of the paper: each block's plane fit ignores its
// neighbors, so at high compression ratios adjacent blocks disagree at their
// shared faces — exactly the discontinuities the Bézier post-processor
// repairs.
//
// The sweep works a block row at a time (kernels.go): whether a Lorenzo
// neighbour lies outside the field depends only on the row, so it is decided
// there, and one loop per mode and direction predicts, quantizes and
// reconstructs (or predicts and dequantizes) the row's samples. Every
// floating-point expression is the one the per-sample formulation evaluated,
// which reference_test.go keeps as the reference the kernels are held to bit
// for bit; streams are byte-identical to every earlier version. The arrays a
// stream needs while it is coded come from a pool shared by the container
// pipeline's workers.
package sz2

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
	"repro/internal/quant"
	"repro/internal/wire"
)

// DefaultBlockSize is SZ2's standard block size for uniform data.
const DefaultBlockSize = 6

// MultiResBlockSize is the block size AMRIC found optimal for
// multi-resolution data (§III-B of the paper).
const MultiResBlockSize = 4

// Options configures compression.
type Options struct {
	// EB is the absolute error bound (> 0).
	EB float64
	// BlockSize is the cubic block edge (default DefaultBlockSize).
	BlockSize int
}

const magic = "SZ2B"

// scratch is the working memory of one stream: the reconstruction the
// encoder predicts from, the per-sample codes, the mode bitmap, the
// regression coefficient codes, the escaped samples, a row of zeros standing
// in for neighbours outside the field (and the rows of a sample at x = 0,
// which start with one), and the payload before DEFLATE.
type scratch struct {
	recon     []float64
	codes     []int32
	modes     []byte
	coefCodes []int32
	outliers  []float64
	zeros     []float64
	edge      [6]float64
	entropy   []byte
	payload   []byte
}

// maxPooledBytes caps what a pooled scratch may keep — a 64³ box needs about
// 4 MiB — so one large stream does not pin its arrays in the pool.
const maxPooledBytes = 8 << 20

var pool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return pool.Get().(*scratch) }

func putScratch(s *scratch) {
	size := 8*(cap(s.recon)+cap(s.outliers)+cap(s.zeros)) + 4*(cap(s.codes)+cap(s.coefCodes)) +
		cap(s.modes) + cap(s.entropy) + cap(s.payload)
	if size <= maxPooledBytes {
		pool.Put(s)
	}
}

// resize returns a slice of length n, reusing s's array when it is large
// enough. The elements are whatever s held: callers overwrite or clear them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Compress encodes the field under opt and appends the stream to dst (nil
// for a new buffer), as flatepool.Deflate does.
func Compress(dst []byte, f *field.Field, opt Options) ([]byte, error) {
	if !(opt.EB > 0) {
		return nil, errors.New("sz2: error bound must be positive")
	}
	bs := opt.BlockSize
	if bs == 0 {
		bs = DefaultBlockSize
	}
	if bs < 2 {
		return nil, fmt.Errorf("sz2: block size %d too small", bs)
	}
	s := getScratch()
	defer putScratch(s)
	s.encode(f, opt.EB, bs)
	// The code stream is entropy-coded first: it is the larger one, so the
	// Huffman scratch is sized for it and the coefficients fit in after.
	e := huffman.AppendEncode(s.entropy[:0], s.codes)
	nc := len(e)
	e = huffman.AppendEncode(e, s.coefCodes)
	s.entropy = e

	// Container. Block sizes ≤ 255 keep the historical single-byte
	// encoding (so every previously written stream stays decodable);
	// larger sizes — which the old writer silently truncated to their low
	// byte — are escaped with 0x00 (never a legal size, bs ≥ 2) followed
	// by a uvarint. The header is magic, block size, 3 dimensions, the
	// bound and 4 chunk lengths.
	const header = len(magic) + 1 + 8 + 8*binary.MaxVarintLen64
	p := slices.Grow(s.payload[:0], header+len(s.modes)+len(e)+8*len(s.outliers))
	p = append(p, magic...)
	if bs <= 0xFF {
		p = append(p, byte(bs))
	} else {
		p = binary.AppendUvarint(append(p, 0), uint64(bs))
	}
	p = binary.AppendUvarint(p, uint64(f.Nx))
	p = binary.AppendUvarint(p, uint64(f.Ny))
	p = binary.AppendUvarint(p, uint64(f.Nz))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(opt.EB))
	p = appendChunk(p, s.modes)
	p = appendChunk(p, e[nc:])
	p = appendChunk(p, e[:nc])
	p = binary.AppendUvarint(p, uint64(8*len(s.outliers)))
	for _, v := range s.outliers {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
	}
	s.payload = p
	return flatepool.Deflate(dst, p)
}

// appendChunk appends b to p behind its uvarint length.
func appendChunk(p, b []byte) []byte {
	return append(binary.AppendUvarint(p, uint64(len(b))), b...)
}

// encode predicts and quantizes every sample of f, leaving in s the codes
// (block by block, each block z, y, x), the mode bitmap (a bit per block,
// most significant first, set for regression), the coefficient codes of the
// regression blocks and the escaped samples, in visit order.
func (s *scratch) encode(f *field.Field, eb float64, bs int) {
	nx, ny, nz := f.Nx, f.Ny, f.Nz
	nBlocks := blocksAlong(nx, bs) * blocksAlong(ny, bs) * blocksAlong(nz, bs)
	s.recon = resize(s.recon, len(f.Data))
	s.codes = resize(s.codes, len(f.Data))
	s.modes = resize(s.modes, (nBlocks+7)/8)
	clear(s.modes)
	s.coefCodes = resize(s.coefCodes, 4*nBlocks)[:0]
	w := s.newSweep(nx, ny, bs, eb)
	w.data, w.recon, w.codes, w.outliers = f.Data, s.recon, s.codes, s.outliers[:0]
	// Regression coefficients are quantized on a grid of eb/(2·bs) so the
	// plane's contribution to the prediction error stays well inside eb.
	coefStep := eb / (2 * float64(bs))

	b := 0
	for z0 := 0; z0 < nz; z0 += bs {
		bz := min(bs, nz-z0)
		for y0 := 0; y0 < ny; y0 += bs {
			by := min(bs, ny-y0)
			for x0 := 0; x0 < nx; x0 += bs {
				bx := min(bs, nx-x0)
				useReg, coefs := w.chooseMode(f, x0, y0, z0, bx, by, bz)
				if useReg {
					s.modes[b>>3] |= 0x80 >> (b & 7)
					qc := quantizeCoefs(coefs, coefStep)
					s.coefCodes = append(s.coefCodes, qc[:]...)
					w.regressBlock(x0, y0, z0, bx, by, bz, dequantizeCoefs(qc, coefStep))
				} else {
					w.lorenzoBlock(x0, y0, z0, bx, by, bz)
				}
				b++
			}
		}
	}
	s.outliers = w.outliers
}

// newSweep starts a sweep over a field nx×ny in its first two dimensions
// coded in blocks of bs under the bound eb, its row of zeros taken from s.
func (s *scratch) newSweep(nx, ny, bs int, eb float64) sweep {
	s.zeros = resize(s.zeros, min(bs, nx)+1)
	clear(s.zeros)
	return sweep{nx: nx, ny: ny, nxy: nx * ny, zeros: s.zeros, edge: s.edge[:], eb: eb, twoEB: 2 * eb}
}

// Decompress decodes a buffer produced by Compress into dst, reshaped
// (field.Reuse; nil for a new field), and returns it.
func Decompress(dst *field.Field, data []byte) (*field.Field, error) {
	inflated, err := flatepool.Inflate(data)
	if err != nil {
		return nil, fmt.Errorf("sz2: inflate: %w", err)
	}
	// Everything below copies what it keeps out of the pooled payload.
	defer inflated.Release()
	r := wire.NewReader(inflated.Bytes())
	if string(r.Bytes(len(magic))) != magic {
		return nil, errors.New("sz2: bad magic")
	}
	bs := int(r.Byte())
	if bs == 0 { // escape: block size > 255 follows as a uvarint
		if bs = int(r.Uvarint(math.MaxInt32)); bs <= 0xFF {
			bs = 0 // a non-canonical escape, rejected below
		}
	}
	nx, ny, nz := r.Dims()
	eb := r.Float64()
	modes, coefChunk, codeChunk, outChunk := r.Chunk(), r.Chunk(), r.Chunk(), r.Chunk()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sz2: header: %w", err)
	}
	if bs < 2 || !(eb > 0) {
		return nil, errors.New("sz2: invalid header")
	}

	// The bitmap holds exactly one bit per block: a short one would read its
	// missing blocks as Lorenzo, a long one carries bits no block owns.
	nBlocks := blocksAlong(nx, bs) * blocksAlong(ny, bs) * blocksAlong(nz, bs)
	if len(modes) != (nBlocks+7)/8 {
		return nil, fmt.Errorf("sz2: %d-byte mode bitmap for %d blocks", len(modes), nBlocks)
	}
	s := getScratch()
	defer putScratch(s)
	// Codes before coefficients, as Compress coded them.
	codes, err := huffman.AppendDecode(s.codes[:0], codeChunk)
	if err != nil {
		return nil, err
	}
	s.codes = codes
	if len(codes) != nx*ny*nz {
		return nil, fmt.Errorf("sz2: code count %d != %d", len(codes), nx*ny*nz)
	}
	coefCodes, err := huffman.AppendDecode(s.coefCodes[:0], coefChunk)
	if err != nil {
		return nil, err
	}
	s.coefCodes = coefCodes
	if len(outChunk)%8 != 0 {
		return nil, errors.New("sz2: ragged outlier chunk")
	}

	g := field.Reuse(dst, nx, ny, nz)
	w := s.newSweep(nx, ny, bs, eb)
	w.recon, w.codes, w.outChunk = g.Data, codes, outChunk
	coefStep := eb / (2 * float64(bs))

	cpos, b := 0, 0
	for z0 := 0; z0 < nz; z0 += bs {
		bz := min(bs, nz-z0)
		for y0 := 0; y0 < ny; y0 += bs {
			by := min(bs, ny-y0)
			for x0 := 0; x0 < nx; x0 += bs {
				bx := min(bs, nx-x0)
				if modes[b>>3]&(0x80>>(b&7)) != 0 {
					if cpos+4 > len(coefCodes) {
						return nil, errors.New("sz2: coefficient stream underrun")
					}
					qc := [4]int32(coefCodes[cpos : cpos+4])
					cpos += 4
					w.regressBlock(x0, y0, z0, bx, by, bz, dequantizeCoefs(qc, coefStep))
				} else {
					w.lorenzoBlock(x0, y0, z0, bx, by, bz)
				}
				b++
			}
		}
	}
	if cpos != len(coefCodes) {
		return nil, fmt.Errorf("sz2: %d trailing coefficient codes", len(coefCodes)-cpos)
	}
	if err := quant.OutlierErr(w.underrun, len(outChunk)/8-w.outPos); err != nil {
		return nil, fmt.Errorf("sz2: %w", err)
	}
	return g, nil
}

// fitPlane computes the least-squares fit v ≈ a + b·x + c·y + d·z over the
// block using local coordinates. Because the coordinates are a regular grid,
// the normal equations are diagonal after centering.
func fitPlane(f *field.Field, x0, y0, z0, bx, by, bz int) [4]float64 {
	n := float64(bx * by * bz)
	mx, my, mz := float64(bx-1)/2, float64(by-1)/2, float64(bz-1)/2
	var sum, sxv, syv, szv float64
	for z := 0; z < bz; z++ {
		for y := 0; y < by; y++ {
			i := f.Index(x0, y0+y, z0+z)
			for x, v := range f.Data[i : i+bx] {
				sum += v
				sxv += (float64(x) - mx) * v
				syv += (float64(y) - my) * v
				szv += (float64(z) - mz) * v
			}
		}
	}
	mean := sum / n
	// Var of coordinate u over the grid: n * var1(u), var1 = (len²−1)/12.
	sxx := n * float64(bx*bx-1) / 12
	syy := n * float64(by*by-1) / 12
	szz := n * float64(bz*bz-1) / 12
	var b, c, d float64
	if bx > 1 {
		b = sxv / sxx
	}
	if by > 1 {
		c = syv / syy
	}
	if bz > 1 {
		d = szv / szz
	}
	a := mean - b*mx - c*my - d*mz
	return [4]float64{a, b, c, d}
}

func quantizeCoefs(c [4]float64, step float64) [4]int32 {
	var q [4]int32
	for i, v := range c {
		k := math.Round(v / step)
		if k > math.MaxInt32 || k < math.MinInt32 || math.IsNaN(k) {
			k = 0 // degenerate fit; regression will simply predict poorly
		}
		q[i] = int32(k)
	}
	return q
}

func dequantizeCoefs(q [4]int32, step float64) [4]float64 {
	var c [4]float64
	for i, v := range q {
		c[i] = float64(v) * step
	}
	return c
}

func blocksAlong(n, bs int) int { return (n + bs - 1) / bs }
