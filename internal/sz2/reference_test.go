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

// The reference: Compress and Decompress as they were before the row
// kernels, kept so that the tests can hold the kernels to them bit for bit.
// They are deliberately slow and obvious: a closure per block, a closure per
// Lorenzo neighbour deciding the domain boundary for every sample, the
// quantizer called through its bookkeeping wrapper, codes appended one by
// one, the mode bitmap packed and unpacked through a byte per block.

// mode constants per block.
const (
	modeLorenzo byte = 0
	modeRegress byte = 1
)

// refQuantizer is the quant.Quantizer the reference called, kept with it:
// Quantize and Dequantize behind the bookkeeping of escaped samples.
type refQuantizer struct {
	EB       float64
	Outliers []float64
	outPos   int
	underrun bool
}

func (q *refQuantizer) Encode(v, pred float64) (code int32, recon float64) {
	code, recon = quant.Quantize(v, pred, q.EB, 2*q.EB)
	if code == 0 {
		q.Outliers = append(q.Outliers, v)
	}
	return code, recon
}

func (q *refQuantizer) Decode(code int32, pred float64) float64 {
	if code != 0 {
		return quant.Dequantize(code, pred, 2*q.EB)
	}
	if q.outPos >= len(q.Outliers) {
		q.underrun = true
		return 0
	}
	v := q.Outliers[q.outPos]
	q.outPos++
	return v
}

func (q *refQuantizer) DecodeErr() error {
	return quant.OutlierErr(q.underrun, len(q.Outliers)-q.outPos)
}

func refCompress(f *field.Field, opt Options) ([]byte, error) {
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
	codes, modes, coefCodes, outliers := refEncode(f, opt.EB, bs)
	nx, ny, nz := f.Nx, f.Ny, f.Nz

	var payload bytes.Buffer
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
	for _, v := range outliers {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
		outBuf.Write(tmp[:])
	}
	writeChunk(outBuf.Bytes())

	return flatepool.Deflate(nil, payload.Bytes())
}

// refEncode is the prediction and quantization stage of refCompress: the
// per-sample codes, a byte per block mode, the regression coefficient codes
// and the escaped samples.
func refEncode(f *field.Field, eb float64, bs int) (codes []int32, modes []byte, coefCodes []int32, outliers []float64) {
	nx, ny, nz := f.Nx, f.Ny, f.Nz
	recon := make([]float64, len(f.Data))
	q := &refQuantizer{EB: eb}
	coefStep := eb / (2 * float64(bs))
	forEachBlock(nx, ny, nz, bs, func(x0, y0, z0, bx, by, bz int) {
		useReg, coefs := refChooseMode(f, x0, y0, z0, bx, by, bz)
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
	return codes, modes, coefCodes, q.Outliers
}

func refDecompress(data []byte) (*field.Field, error) {
	inflated, err := flatepool.Inflate(data)
	if err != nil {
		return nil, fmt.Errorf("sz2: inflate: %w", err)
	}
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
	if bs == 0 {
		bs64, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if bs64 <= 0xFF || bs64 > math.MaxInt32 {
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
	q := &refQuantizer{EB: eb}
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

func refChooseMode(f *field.Field, x0, y0, z0, bx, by, bz int) (useReg bool, coefs [4]float64) {
	coefs = refFitPlane(f, x0, y0, z0, bx, by, bz)
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

func refFitPlane(f *field.Field, x0, y0, z0, bx, by, bz int) [4]float64 {
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
