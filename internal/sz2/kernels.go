package sz2

import (
	"encoding/binary"
	"math"

	"repro/internal/field"
	"repro/internal/quant"
)

// The block sweep, shared by the encoder and the decoder.
//
// Blocks are visited in raster order (z outermost), and the samples of a
// block z, y, x. The Lorenzo predictor reads the seven neighbours at −1 on
// some non-empty set of the axes, all reconstructed earlier in that order,
// and counts a neighbour outside the field as zero. Which neighbours are
// outside depends only on the row (y = 0, z = 0) and, for its first sample
// only, on x = 0 — so it is decided once per block row: the four rows a run
// of samples is predicted from come from the reconstruction or from a row
// of zeros, and a row at x = 0 has its first sample peeled off. What runs
// per sample is then one loop per mode and direction, with the per-sample
// formulation's floating-point expressions, so codes, escapes and
// reconstructions are bit-identical to it (reference_test.go).

// sweep is the state of one encode or decode over a field.
type sweep struct {
	nx, ny, nxy int
	zeros       []float64 // a block row and one more sample of zeros
	edge        []float64 // three two-sample rows for a sample at x = 0 (edgeRows)
	eb, twoEB   float64

	recon []float64 // reconstruction so far; every prediction reads it
	codes []int32   // one per sample, in visit order
	pos   int       // next index into codes

	// Encode: data is the input, outliers collects escaped samples.
	// Decode: data is nil, outChunk is the stream's escaped samples (8
	// little-endian bytes each) and outPos the cursor into them; underrun
	// records a zero code that found none left.
	data     []float64
	outliers []float64
	outChunk []byte
	outPos   int
	underrun bool
}

// The Lorenzo kernels read, for a run of samples in one row, four rows,
// each starting one sample before the run (at x−1): r0 the run's own row,
// r1 the row at y−1, r2 the row at z−1, r3 the row at (y−1, z−1). The
// prediction of the run's sample x is
//
//	r0[x] + r1[x+1] + r2[x+1] − r1[x] − r2[x] − r3[x+1] + r3[x]
//
// — the neighbours at x−1, y−1, z−1, (x−1, y−1), (x−1, z−1), (y−1, z−1),
// (x−1, y−1, z−1), the per-sample predictor's order of evaluation. A
// neighbour outside the field reads a zero where that predictor used one,
// so every sum rounds as it did. The rows travel as arguments and results,
// never stored through a pointer, so setting them up costs no write barrier.

// rows returns the rows of the n samples of v from flat index i, all of
// which have their neighbours at x−1 inside the field. hasY and hasZ say
// whether those at y−1 and z−1 are.
func (w *sweep) rows(v []float64, i, n int, hasY, hasZ bool) (r0, r1, r2, r3 []float64) {
	dy, dz := w.nx, w.nxy
	z := w.zeros[:n+1]
	r0, r1, r2, r3 = v[i-1:i+n], z, z, z
	if hasY {
		r1 = v[i-dy-1 : i-dy+n]
	}
	if hasZ {
		r2 = v[i-dz-1 : i-dz+n]
		if hasY {
			r3 = v[i-dy-dz-1 : i-dy-dz+n]
		}
	}
	return r0, r1, r2, r3
}

// edgeRows returns the rows of the sample of v at flat index i, which sits
// at x = 0: every row starts with a zero for the neighbour at x−1.
func (w *sweep) edgeRows(v []float64, i int, hasY, hasZ bool) (r0, r1, r2, r3 []float64) {
	e := w.edge[:6]
	clear(e)
	if hasY {
		e[1] = v[i-w.nx]
	}
	if hasZ {
		e[3] = v[i-w.nxy]
		if hasY {
			e[5] = v[i-w.nx-w.nxy]
		}
	}
	return w.zeros[:2], e[0:2], e[2:4], e[4:6]
}

// lorenzoBlock codes (encode) or reconstructs (decode) the bx×by×bz block
// at (x0, y0, z0) with the Lorenzo predictor.
func (w *sweep) lorenzoBlock(x0, y0, z0, bx, by, bz int) {
	encode := w.data != nil
	for z := z0; z < z0+bz; z++ {
		for y := y0; y < y0+by; y++ {
			i, n := x0+w.nx*(y+w.ny*z), bx
			if x0 == 0 {
				r0, r1, r2, r3 := w.edgeRows(w.recon, i, y > 0, z > 0)
				if encode {
					w.lorenzoEncode(i, 1, r0, r1, r2, r3)
				} else {
					w.lorenzoDecode(i, 1, r0, r1, r2, r3)
				}
				i, n = i+1, n-1
			}
			if n == 0 {
				continue
			}
			r0, r1, r2, r3 := w.rows(w.recon, i, n, y > 0, z > 0)
			if encode {
				w.lorenzoEncode(i, n, r0, r1, r2, r3)
			} else {
				w.lorenzoDecode(i, n, r0, r1, r2, r3)
			}
		}
	}
}

// chooseMode decides between Lorenzo and regression for a block by comparing
// squared prediction errors on the original samples (the standard SZ2
// sampling-free heuristic: Lorenzo error is estimated with original-value
// neighbors, which closely tracks the reconstructed-value error). Each sum
// adds the samples in visit order.
func (w *sweep) chooseMode(f *field.Field, x0, y0, z0, bx, by, bz int) (useReg bool, coefs [4]float64) {
	coefs = fitPlane(f, x0, y0, z0, bx, by, bz)
	v := f.Data
	var seReg, seLor float64
	for z := 0; z < bz; z++ {
		for y := 0; y < by; y++ {
			i := x0 + w.nx*(y0+y+w.ny*(z0+z))
			fy, fz := float64(y), float64(z)
			for x, s := range v[i : i+bx] {
				d := s - (coefs[0] + coefs[1]*float64(x) + coefs[2]*fy + coefs[3]*fz)
				seReg += d * d
			}
		}
	}
	for z := z0; z < z0+bz; z++ {
		for y := y0; y < y0+by; y++ {
			i, n := x0+w.nx*(y+w.ny*z), bx
			if x0 == 0 {
				r0, r1, r2, r3 := w.edgeRows(v, i, y > 0, z > 0)
				seLor = lorenzoSSE(seLor, v[i:i+1], r0, r1, r2, r3)
				i, n = i+1, n-1
			}
			if n == 0 {
				continue
			}
			r0, r1, r2, r3 := w.rows(v, i, n, y > 0, z > 0)
			seLor = lorenzoSSE(seLor, v[i:i+n], r0, r1, r2, r3)
		}
	}
	return seReg < seLor, coefs
}

// The kernels. Every one must keep the Lorenzo or the regression
// expression identical to the others.

// lorenzoSSE adds to se the squared errors of the Lorenzo predictions of
// the samples v, in order.
func lorenzoSSE(se float64, v, r0, r1, r2, r3 []float64) float64 {
	n := len(v)
	r0, r1, r2, r3 = r0[:n+1], r1[:n+1], r2[:n+1], r3[:n+1]
	for x, s := range v {
		d := s - (r0[x] + r1[x+1] + r2[x+1] - r1[x] - r2[x] - r3[x+1] + r3[x])
		se += d * d
	}
	return se
}

func (w *sweep) lorenzoEncode(i, n int, r0, r1, r2, r3 []float64) {
	r0, r1, r2, r3 = r0[:n+1], r1[:n+1], r2[:n+1], r3[:n+1]
	data, recon, codes := w.data[i:i+n], w.recon[i:i+n], w.codes[w.pos:w.pos+n]
	eb, twoEB := w.eb, w.twoEB
	for x, v := range data {
		pred := r0[x] + r1[x+1] + r2[x+1] - r1[x] - r2[x] - r3[x+1] + r3[x]
		code, r := quant.Quantize(v, pred, eb, twoEB)
		if code == 0 {
			w.outliers = append(w.outliers, v)
		}
		codes[x], recon[x] = code, r
	}
	w.pos += n
}

func (w *sweep) lorenzoDecode(i, n int, r0, r1, r2, r3 []float64) {
	r0, r1, r2, r3 = r0[:n+1], r1[:n+1], r2[:n+1], r3[:n+1]
	recon, codes := w.recon[i:i+n], w.codes[w.pos:w.pos+n]
	twoEB := w.twoEB
	for x, code := range codes {
		pred := r0[x] + r1[x+1] + r2[x+1] - r1[x] - r2[x] - r3[x+1] + r3[x]
		if code != 0 {
			recon[x] = quant.Dequantize(code, pred, twoEB)
		} else {
			recon[x] = w.nextOutlier()
		}
	}
	w.pos += n
}

// regressBlock codes (encode) or reconstructs (decode) the bx×by×bz block at
// (x0, y0, z0) from the plane dq, in local coordinates. The prediction keeps
// the per-sample form dq₀ + dq₁·x + dq₂·y + dq₃·z: accumulating it along x
// would round differently.
func (w *sweep) regressBlock(x0, y0, z0, bx, by, bz int, dq [4]float64) {
	for z := 0; z < bz; z++ {
		for y := 0; y < by; y++ {
			i := x0 + w.nx*(y0+y+w.ny*(z0+z))
			if w.data != nil {
				w.regressEncode(i, bx, &dq, float64(y), float64(z))
			} else {
				w.regressDecode(i, bx, &dq, float64(y), float64(z))
			}
		}
	}
}

func (w *sweep) regressEncode(i, n int, dq *[4]float64, fy, fz float64) {
	data, recon, codes := w.data[i:i+n], w.recon[i:i+n], w.codes[w.pos:w.pos+n]
	eb, twoEB := w.eb, w.twoEB
	for x, v := range data {
		pred := dq[0] + dq[1]*float64(x) + dq[2]*fy + dq[3]*fz
		code, r := quant.Quantize(v, pred, eb, twoEB)
		if code == 0 {
			w.outliers = append(w.outliers, v)
		}
		codes[x], recon[x] = code, r
	}
	w.pos += n
}

func (w *sweep) regressDecode(i, n int, dq *[4]float64, fy, fz float64) {
	recon, codes := w.recon[i:i+n], w.codes[w.pos:w.pos+n]
	twoEB := w.twoEB
	for x, code := range codes {
		pred := dq[0] + dq[1]*float64(x) + dq[2]*fy + dq[3]*fz
		if code != 0 {
			recon[x] = quant.Dequantize(code, pred, twoEB)
		} else {
			recon[x] = w.nextOutlier()
		}
	}
	w.pos += n
}

// nextOutlier consumes the stream's next escaped sample. Past the end of the
// list it yields 0 and records the underrun, which Decompress reports.
func (w *sweep) nextOutlier() float64 {
	if w.outPos >= len(w.outChunk)/8 {
		w.underrun = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(w.outChunk[8*w.outPos:]))
	w.outPos++
	return v
}
