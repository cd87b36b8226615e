// Package zfp implements a transform-based, block-wise lossy compressor
// modeled after ZFP's fixed-accuracy mode (Lindstrom, TVCG 2014).
//
// Each 4³ block is converted to block-floating-point integers (a shared
// exponent per block), decorrelated with a separable two-level integer
// lifting transform (exactly invertible), reordered by total sequency, and
// its coefficients are truncated to a per-block precision derived
// conservatively from the error tolerance. Like real ZFP, the achieved
// maximum error is typically well below the requested tolerance — the
// "underestimation characteristic" the paper exploits when choosing the
// post-processing intensity candidates for ZFP (§III-B).
//
// Partial boundary blocks are padded by edge replication, as in ZFP.
package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/flatepool"
	"repro/internal/wire"
)

// BlockSize is the fixed block edge (4, as in ZFP).
const BlockSize = 4

// Options configures compression.
type Options struct {
	// Tolerance is the absolute error tolerance (> 0). The achieved max
	// error is guaranteed ≤ Tolerance and is typically much smaller.
	Tolerance float64
}

const magic = "ZFPG"

// fixedPointBits positions values in a 64-bit integer with headroom for the
// transform's dynamic-range growth.
const fixedPointBits = 40

// conservativeness divides the tolerance when choosing how many low bits to
// truncate, absorbing transform error amplification plus rounding. The value
// is calibrated so the achieved maximum error stays below the tolerance with
// a 2–4× margin — matching real ZFP's accuracy mode, whose true error also
// sits well below the requested tolerance (the "underestimation
// characteristic" of §III-B).
const conservativeness = 4

// emaxEmpty flags an all-zero block.
const emaxEmpty = math.MinInt16

// Compress encodes the field under opt and appends the stream to dst (nil
// for a new buffer), as flatepool.Deflate does.
func Compress(dst []byte, f *field.Field, opt Options) ([]byte, error) {
	if opt.Tolerance <= 0 {
		return nil, errors.New("zfp: tolerance must be positive")
	}
	nx, ny, nz := f.Nx, f.Ny, f.Nz

	// The payload is the header, a table of one int16 emax per block, then
	// the coefficients as varints, about 1.25 bytes each. The table is
	// reserved up front and filled as the blocks are coded.
	nBlocks := blocksAlong(nx) * blocksAlong(ny) * blocksAlong(nz)
	p := make([]byte, 0, len(magic)+4*binary.MaxVarintLen64+8+82*nBlocks)
	p = append(p, magic...)
	p = binary.AppendUvarint(p, uint64(nx))
	p = binary.AppendUvarint(p, uint64(ny))
	p = binary.AppendUvarint(p, uint64(nz))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(opt.Tolerance))
	p = binary.AppendUvarint(p, uint64(nBlocks))
	table := len(p)
	p = p[:table+2*nBlocks]

	var block [64]float64
	var iblock [64]int64
	bi := 0
	forEachBlock(nx, ny, nz, func(x0, y0, z0 int) {
		loadBlockPadded(f, x0, y0, z0, &block)
		maxAbs := 0.0
		for _, v := range block {
			a := math.Abs(v)
			if a > maxAbs {
				maxAbs = a
			}
		}
		emax := int16(emaxEmpty)
		if maxAbs > 0 {
			_, e := math.Frexp(maxAbs)
			emax = int16(e)
			scale := math.Ldexp(1, fixedPointBits-e)
			for i, v := range block {
				iblock[i] = int64(math.Round(v * scale))
			}
			forwardTransform(&iblock)
			drop := dropBits(opt.Tolerance, scale)
			for _, idx := range sequencyOrder {
				p = binary.AppendVarint(p, rshiftRound(iblock[idx], drop))
			}
		}
		binary.LittleEndian.PutUint16(p[table+2*bi:], uint16(emax))
		bi++
	})
	return flatepool.Deflate(dst, p)
}

// Decompress decodes a buffer produced by Compress into dst, reshaped
// (field.Reuse; nil for a new field), and returns it.
func Decompress(dst *field.Field, data []byte) (*field.Field, error) {
	inflated, err := flatepool.Inflate(data)
	if err != nil {
		return nil, fmt.Errorf("zfp: inflate: %w", err)
	}
	// Everything below copies what it keeps out of the pooled payload.
	defer inflated.Release()
	r := wire.NewReader(inflated.Bytes())
	if string(r.Bytes(len(magic))) != magic {
		return nil, errors.New("zfp: bad magic")
	}
	nx, ny, nz := r.Dims()
	tol := r.Float64()
	want := blocksAlong(nx) * blocksAlong(ny) * blocksAlong(nz)
	nBlocks := r.Uvarint(math.MaxUint64)
	emaxs := r.Bytes(2 * want)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("zfp: header: %w", err)
	}
	if !(tol > 0) {
		return nil, errors.New("zfp: invalid tolerance")
	}
	if nBlocks != uint64(want) {
		return nil, fmt.Errorf("zfp: block count %d != %d", nBlocks, want)
	}
	buf := r.Rest()

	g := field.Reuse(dst, nx, ny, nz)
	var iblock [64]int64
	var block, zeroBlock [64]float64
	bi := 0
	var decodeErr error
	forEachBlock(nx, ny, nz, func(x0, y0, z0 int) {
		if decodeErr != nil {
			return
		}
		emax := int16(emaxs[2*bi]) | int16(emaxs[2*bi+1])<<8 // little endian
		bi++
		if emax == emaxEmpty {
			storeBlock(g, x0, y0, z0, &zeroBlock)
			return
		}
		scale := math.Ldexp(1, fixedPointBits-int(emax))
		drop := dropBits(tol, scale)
		for _, idx := range sequencyOrder {
			c, n := binary.Varint(buf)
			if n <= 0 {
				decodeErr = errors.New("zfp: truncated coefficients")
				return
			}
			buf = buf[n:]
			iblock[idx] = c << drop
		}
		inverseTransform(&iblock)
		for i, v := range iblock {
			block[i] = float64(v) / scale
		}
		storeBlock(g, x0, y0, z0, &block)
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	return g, nil
}

// dropBits returns how many low coefficient bits can be discarded while
// keeping the reconstruction error within tol.
func dropBits(tol, scale float64) uint {
	budget := tol * scale / conservativeness
	if budget < 2 {
		return 0
	}
	d := uint(math.Floor(math.Log2(budget)))
	if d > 40 {
		d = 40
	}
	return d
}

// rshiftRound shifts v right by b bits with round-half-up, so the
// reintroduced error is at most 2^(b−1).
func rshiftRound(v int64, b uint) int64 {
	if b == 0 {
		return v
	}
	return (v + 1<<(b-1)) >> b
}

// lift4 applies the forward two-level integer lifting transform to a stride
// of 4 values: after it, index 0 holds the DC average, index 2 the low
// detail, and indices 1, 3 the high details. Every step is a lifting step,
// so inverse4 undoes it exactly.
func lift4(v *[64]int64, i0, stride int) {
	a, b, c, d := v[i0], v[i0+stride], v[i0+2*stride], v[i0+3*stride]
	b -= a
	d -= c
	a += b >> 1
	c += d >> 1
	c -= a
	a += c >> 1
	v[i0], v[i0+stride], v[i0+2*stride], v[i0+3*stride] = a, b, c, d
}

// inverse4 exactly inverts lift4.
func inverse4(v *[64]int64, i0, stride int) {
	a, b, c, d := v[i0], v[i0+stride], v[i0+2*stride], v[i0+3*stride]
	a -= c >> 1
	c += a
	c -= d >> 1
	d += c
	a -= b >> 1
	b += a
	v[i0], v[i0+stride], v[i0+2*stride], v[i0+3*stride] = a, b, c, d
}

func forwardTransform(v *[64]int64) {
	// Along x.
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			lift4(v, 4*y+16*z, 1)
		}
	}
	// Along y.
	for z := 0; z < 4; z++ {
		for x := 0; x < 4; x++ {
			lift4(v, x+16*z, 4)
		}
	}
	// Along z.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			lift4(v, x+4*y, 16)
		}
	}
}

func inverseTransform(v *[64]int64) {
	// Reverse order of forwardTransform.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			inverse4(v, x+4*y, 16)
		}
	}
	for z := 0; z < 4; z++ {
		for x := 0; x < 4; x++ {
			inverse4(v, x+16*z, 4)
		}
	}
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			inverse4(v, 4*y+16*z, 1)
		}
	}
}

// sequencyOrder lists the 64 coefficient indices ordered by total sequency
// (sum of per-axis frequency weights), so low-frequency coefficients come
// first — improving entropy-coding locality, as in ZFP's ordering.
var sequencyOrder = buildSequencyOrder()

// freqWeight maps the within-axis position after lift4 to a frequency rank:
// 0 = DC, 2 = low detail, 1 and 3 = high details.
var freqWeight = [4]int{0, 2, 1, 2}

func buildSequencyOrder() []int {
	type entry struct{ idx, w int }
	entries := make([]entry, 0, 64)
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				entries = append(entries, entry{x + 4*y + 16*z, freqWeight[x] + freqWeight[y] + freqWeight[z]})
			}
		}
	}
	// Stable sort by weight, preserving raster order within a weight class.
	order := make([]int, 0, 64)
	for w := 0; w <= 6; w++ {
		for _, e := range entries {
			if e.w == w {
				order = append(order, e.idx)
			}
		}
	}
	return order
}

func blocksAlong(n int) int { return (n + BlockSize - 1) / BlockSize }

func forEachBlock(nx, ny, nz int, fn func(x0, y0, z0 int)) {
	for z0 := 0; z0 < nz; z0 += BlockSize {
		for y0 := 0; y0 < ny; y0 += BlockSize {
			for x0 := 0; x0 < nx; x0 += BlockSize {
				fn(x0, y0, z0)
			}
		}
	}
}

// loadBlockPadded copies the 4³ block at (x0,y0,z0) into dst, replicating
// edge samples for out-of-domain positions.
func loadBlockPadded(f *field.Field, x0, y0, z0 int, dst *[64]float64) {
	for z := 0; z < 4; z++ {
		gz := x0clamp(z0+z, f.Nz)
		for y := 0; y < 4; y++ {
			gy := x0clamp(y0+y, f.Ny)
			for x := 0; x < 4; x++ {
				gx := x0clamp(x0+x, f.Nx)
				dst[x+4*y+16*z] = f.At(gx, gy, gz)
			}
		}
	}
}

// storeBlock writes back the in-domain portion of a 4³ block.
func storeBlock(f *field.Field, x0, y0, z0 int, src *[64]float64) {
	for z := 0; z < 4 && z0+z < f.Nz; z++ {
		for y := 0; y < 4 && y0+y < f.Ny; y++ {
			for x := 0; x < 4 && x0+x < f.Nx; x++ {
				f.Set(x0+x, y0+y, z0+z, src[x+4*y+16*z])
			}
		}
	}
}

func x0clamp(v, n int) int {
	if v >= n {
		return n - 1
	}
	return v
}
