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
package sz2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/flatepool"
	"repro/internal/huffman"
	"repro/internal/quant"
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

// mode constants per block.
const (
	modeLorenzo byte = 0
	modeRegress byte = 1
)

// Compress encodes the field under opt.
func Compress(f *field.Field, opt Options) ([]byte, error) {
	if opt.EB <= 0 {
		return nil, errors.New("sz2: error bound must be positive")
	}
	bs := opt.BlockSize
	if bs == 0 {
		bs = DefaultBlockSize
	}
	if bs < 2 {
		return nil, fmt.Errorf("sz2: block size %d too small", bs)
	}

	nx, ny, nz := f.Nx, f.Ny, f.Nz
	recon := make([]float64, len(f.Data))
	q := quant.New(opt.EB)
	// Regression coefficients are quantized on a grid of eb/(2·bs) so the
	// plane's contribution to the prediction error stays well inside eb.
	coefStep := opt.EB / (2 * float64(bs))

	nBlocks := blocksAlong(nx, bs) * blocksAlong(ny, bs) * blocksAlong(nz, bs)
	modes := make([]byte, 0, nBlocks)
	coefCodes := make([]int32, 0, 4*nBlocks)
	codes := make([]int32, 0, len(f.Data))

	forEachBlock(nx, ny, nz, bs, func(x0, y0, z0, bx, by, bz int) {
		useReg, coefs := chooseMode(f, x0, y0, z0, bx, by, bz)
		if useReg {
			modes = append(modes, modeRegress)
			qc := quantizeCoefs(coefs, coefStep)
			coefCodes = append(coefCodes, qc[:]...)
			dq := dequantizeCoefs(qc, coefStep)
			for z := 0; z < bz; z++ {
				for y := 0; y < by; y++ {
					for x := 0; x < bx; x++ {
						i := f.Index(x0+x, y0+y, z0+z)
						pred := dq[0] + dq[1]*float64(x) + dq[2]*float64(y) + dq[3]*float64(z)
						c, r := q.Encode(f.Data[i], pred)
						codes = append(codes, c)
						recon[i] = r
					}
				}
			}
		} else {
			modes = append(modes, modeLorenzo)
			for z := 0; z < bz; z++ {
				for y := 0; y < by; y++ {
					for x := 0; x < bx; x++ {
						gx, gy, gz := x0+x, y0+y, z0+z
						i := f.Index(gx, gy, gz)
						pred := lorenzo(recon, nx, ny, gx, gy, gz)
						c, r := q.Encode(f.Data[i], pred)
						codes = append(codes, c)
						recon[i] = r
					}
				}
			}
		}
	})

	// Container. Block sizes ≤ 255 keep the historical single-byte
	// encoding (so every previously written stream stays decodable);
	// larger sizes — which the old writer silently truncated to their low
	// byte — are escaped with 0x00 (never a legal size, bs ≥ 2) followed
	// by a uvarint.
	var payload bytes.Buffer
	payload.Grow(len(modes)/8 + len(codes)/2 + 8*len(q.Outliers) + 64)
	payload.WriteString(magic)
	var tmp [8]byte
	if bs <= 0xFF {
		payload.WriteByte(byte(bs))
	} else {
		payload.WriteByte(0)
		n := binary.PutUvarint(tmp[:], uint64(bs))
		payload.Write(tmp[:n])
	}
	for _, v := range []uint64{uint64(nx), uint64(ny), uint64(nz)} {
		n := binary.PutUvarint(tmp[:], v)
		payload.Write(tmp[:n])
	}
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(opt.EB))
	payload.Write(tmp[:])

	writeChunk := func(b []byte) {
		n := binary.PutUvarint(tmp[:], uint64(len(b)))
		payload.Write(tmp[:n])
		payload.Write(b)
	}
	writeChunk(packBits(modes))
	writeChunk(huffman.Encode(coefCodes))
	writeChunk(huffman.Encode(codes))
	var outBuf bytes.Buffer
	for _, v := range q.Outliers {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
		outBuf.Write(tmp[:])
	}
	writeChunk(outBuf.Bytes())

	return flatepool.Deflate(payload.Bytes())
}

// Decompress decodes a buffer produced by Compress.
func Decompress(data []byte) (*field.Field, error) {
	inflated, err := flatepool.Inflate(data)
	if err != nil {
		return nil, fmt.Errorf("sz2: inflate: %w", err)
	}
	// Everything below copies what it keeps out of the pooled payload.
	defer inflated.Release()
	payload := inflated.Bytes()
	if len(payload) < 5 || string(payload[:4]) != magic {
		return nil, errors.New("sz2: bad magic")
	}
	buf := payload[4:]
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, errors.New("sz2: truncated header")
		}
		buf = buf[n:]
		return v, nil
	}
	bs := int(buf[0])
	buf = buf[1:]
	if bs == 0 { // escape: block size > 255 follows as a uvarint
		bs64, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if bs64 <= 0xFF || bs64 > math.MaxInt32 { // reject wrap-around and non-canonical escapes
			return nil, errors.New("sz2: invalid header")
		}
		bs = int(bs64)
	}
	nx64, err := readUvarint()
	if err != nil {
		return nil, err
	}
	ny64, err := readUvarint()
	if err != nil {
		return nil, err
	}
	nz64, err := readUvarint()
	if err != nil {
		return nil, err
	}
	nx, ny, nz, _, err := field.CheckDims(nx64, ny64, nz64)
	if err != nil || bs < 2 {
		return nil, errors.New("sz2: invalid header")
	}
	if len(buf) < 8 {
		return nil, errors.New("sz2: truncated eb")
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(buf))
	buf = buf[8:]
	if !(eb > 0) {
		return nil, errors.New("sz2: invalid eb")
	}

	readChunk := func() ([]byte, error) {
		l, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(buf)) < l {
			return nil, errors.New("sz2: truncated chunk")
		}
		c := buf[:l]
		buf = buf[l:]
		return c, nil
	}
	modesPacked, err := readChunk()
	if err != nil {
		return nil, err
	}
	coefChunk, err := readChunk()
	if err != nil {
		return nil, err
	}
	codeChunk, err := readChunk()
	if err != nil {
		return nil, err
	}
	outChunk, err := readChunk()
	if err != nil {
		return nil, err
	}

	nBlocks := blocksAlong(nx, bs) * blocksAlong(ny, bs) * blocksAlong(nz, bs)
	modes := unpackBits(modesPacked, nBlocks)
	coefCodes, err := huffman.Decode(coefChunk)
	if err != nil {
		return nil, err
	}
	codes, err := huffman.Decode(codeChunk)
	if err != nil {
		return nil, err
	}
	if len(codes) != nx*ny*nz {
		return nil, fmt.Errorf("sz2: code count %d != %d", len(codes), nx*ny*nz)
	}
	if len(outChunk)%8 != 0 {
		return nil, errors.New("sz2: ragged outlier chunk")
	}
	outliers := make([]float64, len(outChunk)/8)
	for i := range outliers {
		outliers[i] = math.Float64frombits(binary.LittleEndian.Uint64(outChunk[i*8:]))
	}

	g := field.New(nx, ny, nz)
	recon := g.Data
	q := quant.New(eb)
	q.Outliers = outliers
	coefStep := eb / (2 * float64(bs))

	cpos, kpos, bpos := 0, 0, 0
	var decodeErr error
	forEachBlock(nx, ny, nz, bs, func(x0, y0, z0, bx, by, bz int) {
		if decodeErr != nil {
			return
		}
		if bpos >= len(modes) {
			decodeErr = errors.New("sz2: mode stream underrun")
			return
		}
		mode := modes[bpos]
		bpos++
		if mode == modeRegress {
			if cpos+4 > len(coefCodes) {
				decodeErr = errors.New("sz2: coefficient stream underrun")
				return
			}
			var qc [4]int32
			copy(qc[:], coefCodes[cpos:cpos+4])
			cpos += 4
			dq := dequantizeCoefs(qc, coefStep)
			for z := 0; z < bz; z++ {
				for y := 0; y < by; y++ {
					for x := 0; x < bx; x++ {
						i := g.Index(x0+x, y0+y, z0+z)
						pred := dq[0] + dq[1]*float64(x) + dq[2]*float64(y) + dq[3]*float64(z)
						recon[i] = q.Decode(codes[kpos], pred)
						kpos++
					}
				}
			}
		} else {
			for z := 0; z < bz; z++ {
				for y := 0; y < by; y++ {
					for x := 0; x < bx; x++ {
						gx, gy, gz := x0+x, y0+y, z0+z
						i := g.Index(gx, gy, gz)
						pred := lorenzo(recon, nx, ny, gx, gy, gz)
						recon[i] = q.Decode(codes[kpos], pred)
						kpos++
					}
				}
			}
		}
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	if err := q.DecodeErr(); err != nil {
		return nil, fmt.Errorf("sz2: %w", err)
	}
	return g, nil
}

// lorenzo computes the 3D Lorenzo prediction from reconstructed neighbors;
// out-of-domain neighbors contribute zero.
func lorenzo(recon []float64, nx, ny int, x, y, z int) float64 {
	at := func(i, j, k int) float64 {
		if i < 0 || j < 0 || k < 0 {
			return 0
		}
		return recon[i+nx*(j+ny*k)]
	}
	return at(x-1, y, z) + at(x, y-1, z) + at(x, y, z-1) -
		at(x-1, y-1, z) - at(x-1, y, z-1) - at(x, y-1, z-1) +
		at(x-1, y-1, z-1)
}

// chooseMode decides between Lorenzo and regression for a block by comparing
// squared prediction errors on the original samples (the standard SZ2
// sampling-free heuristic: Lorenzo error is estimated with original-value
// neighbors, which closely tracks the reconstructed-value error).
func chooseMode(f *field.Field, x0, y0, z0, bx, by, bz int) (useReg bool, coefs [4]float64) {
	coefs = fitPlane(f, x0, y0, z0, bx, by, bz)
	var seReg, seLor float64
	for z := 0; z < bz; z++ {
		for y := 0; y < by; y++ {
			for x := 0; x < bx; x++ {
				gx, gy, gz := x0+x, y0+y, z0+z
				v := f.At(gx, gy, gz)
				pr := coefs[0] + coefs[1]*float64(x) + coefs[2]*float64(y) + coefs[3]*float64(z)
				d := v - pr
				seReg += d * d
				pl := lorenzo(f.Data, f.Nx, f.Ny, gx, gy, gz)
				d = v - pl
				seLor += d * d
			}
		}
	}
	return seReg < seLor, coefs
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
			for x := 0; x < bx; x++ {
				v := f.At(x0+x, y0+y, z0+z)
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

// forEachBlock visits blocks in raster order, passing origin and clamped size.
func forEachBlock(nx, ny, nz, bs int, fn func(x0, y0, z0, bx, by, bz int)) {
	for z0 := 0; z0 < nz; z0 += bs {
		bz := bs
		if z0+bz > nz {
			bz = nz - z0
		}
		for y0 := 0; y0 < ny; y0 += bs {
			by := bs
			if y0+by > ny {
				by = ny - y0
			}
			for x0 := 0; x0 < nx; x0 += bs {
				bx := bs
				if x0+bx > nx {
					bx = nx - x0
				}
				fn(x0, y0, z0, bx, by, bz)
			}
		}
	}
}

// packBits packs a byte-per-flag slice into a bitmap.
func packBits(flags []byte) []byte {
	out := make([]byte, (len(flags)+7)/8)
	for i, f := range flags {
		if f != 0 {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out
}

// unpackBits reverses packBits for n flags.
func unpackBits(b []byte, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n && i/8 < len(b); i++ {
		out[i] = b[i/8] >> uint(7-i%8) & 1
	}
	return out
}
