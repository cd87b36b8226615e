package sz3

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/quant"
)

// The prediction sweep, shared by the encoder and the decoder.
//
// When stride s is filled from stride 2s, three axis passes visit the new
// points in this order (matching SZ3):
//
//	pass x: x ≡ s (mod 2s), y ≡ 0 (mod 2s), z ≡ 0 (mod 2s)
//	pass y: x ≡ 0 (mod s),  y ≡ s (mod 2s), z ≡ 0 (mod 2s)
//	pass z: x ≡ 0 (mod s),  y ≡ 0 (mod s),  z ≡ s (mod 2s)
//
// with z outermost and x innermost. How a point is predicted — its mode —
// depends only on its coordinate along the pass axis, so it is decided once
// per x-row in passes y and z, and once per level for the handful of x
// positions of pass x. What is left per sample is a run: n points, step
// apart in the flat array, each predicted from the neighbours d (and 3d)
// elements before and after it, then quantized (encode) or dequantized
// (decode) in the same loop. There is one kernel per mode and direction;
// the arithmetic in each is the expression the per-sample predictor used,
// so codes, outliers and reconstructions are bit-identical to it
// (kernels_test.go keeps that predictor as the reference).

// mode is how a point is predicted along the pass axis.
type mode uint8

const (
	modeLinear mode = iota // 0.5·(a+b): both neighbours at distance s exist
	modeCubic              // (−a+9b+9c−d)/16: so do both at distance 3s
	modeExtrap             // no right neighbour: 1.5·a − 0.5·b from the left two
	modeConst              // no right neighbour, one left one: its value
)

// modeAt returns the mode of the point at coordinate pos on an axis of
// length dim at stride s. pos−s always exists: pos is an odd multiple of s.
func modeAt(pos, dim, s int, interp Interpolant) mode {
	if pos+s >= dim {
		// Boundary: linear extrapolation from the two previous known points
		// (spacing 2s), falling back to constant extrapolation.
		if pos-3*s >= 0 {
			return modeExtrap
		}
		return modeConst
	}
	if interp == Cubic && pos-3*s >= 0 && pos+3*s < dim {
		return modeCubic
	}
	return modeLinear
}

// sweep is the state of one encode or decode over a field.
type sweep struct {
	nx, ny, nz int
	interp     Interpolant
	eb, twoEB  float64 // the current level's bound

	recon []float64 // reconstruction so far; every prediction reads it
	codes []int32   // one per sample, in visit order
	pos   int       // next index into codes

	// Encode: data is the input, outliers collects escaped samples.
	// Decode: data is nil, outliers is the stream's list and outPos the
	// cursor into it; underrun records a zero code that found it empty.
	data     []float64
	outliers []float64
	outPos   int
	underrun bool
}

func (w *sweep) setEB(eb float64) { w.eb, w.twoEB = eb, 2*eb }

// run is the sweep's stride of work: n points from flat index i, step apart,
// predicted in mode m from neighbours at distance d.
func (w *sweep) run(m mode, i, n, step, d int) {
	if w.data != nil {
		switch m {
		case modeLinear:
			w.encodeLinear(i, n, step, d)
		case modeCubic:
			w.encodeCubic(i, n, step, d)
		case modeExtrap:
			w.encodeExtrap(i, n, step, d)
		default:
			w.encodeConst(i, n, step, d)
		}
		return
	}
	switch m {
	case modeLinear:
		w.decodeLinear(i, n, step, d)
	case modeCubic:
		w.decodeCubic(i, n, step, d)
	case modeExtrap:
		w.decodeExtrap(i, n, step, d)
	default:
		w.decodeConst(i, n, step, d)
	}
}

// all runs the whole sweep: the seed point, then every stride level.
func (w *sweep) all(ebTable []float64, maxLevel int) {
	// Seed: the origin is predicted with 0 — here, as a run of one whose
	// "neighbour" at distance 0 is recon[0] itself, zeroed first: a decode
	// may run over a reused destination, and an encode over a pooled
	// reconstruction, that holds anything.
	w.setEB(ebTable[0])
	w.recon[0] = 0
	w.run(modeConst, 0, 1, 1, 0)

	level := 0
	for s := initialStride(w.nx, w.ny, w.nz) / 2; s >= 1; s >>= 1 {
		level++
		w.setEB(ebTable[levelIndex(level, maxLevel)])
		w.passX(s)
		w.passY(s)
		w.passZ(s)
	}
}

func (w *sweep) passX(s int) {
	nx, ny, nz, s2 := w.nx, w.ny, w.nz, 2*s
	// The x positions are the same on every row. Their modes change at most
	// three times along the row (linear at the left edge, cubic, linear,
	// then one extrapolated point), so group them into runs once.
	type xrun struct {
		m    mode
		x, n int
	}
	runs := make([]xrun, 0, 4)
	for x := s; x < nx; x += s2 {
		m := modeAt(x, nx, s, w.interp)
		if k := len(runs) - 1; k >= 0 && runs[k].m == m {
			runs[k].n++
			continue
		}
		runs = append(runs, xrun{m, x, 1})
	}
	for z := 0; z < nz; z += s2 {
		for y := 0; y < ny; y += s2 {
			row := nx * (y + ny*z)
			for _, r := range runs {
				w.run(r.m, row+r.x, r.n, s2, s)
			}
		}
	}
}

func (w *sweep) passY(s int) {
	nx, ny, nz, s2 := w.nx, w.ny, w.nz, 2*s
	n, d := (nx+s-1)/s, s*nx
	for z := 0; z < nz; z += s2 {
		for y := s; y < ny; y += s2 {
			w.run(modeAt(y, ny, s, w.interp), nx*(y+ny*z), n, s, d)
		}
	}
}

func (w *sweep) passZ(s int) {
	nx, ny, nz, s2 := w.nx, w.ny, w.nz, 2*s
	n, d := (nx+s-1)/s, s*nx*ny
	for z := s; z < nz; z += s2 {
		m := modeAt(z, nz, s, w.interp)
		for y := 0; y < ny; y += s {
			w.run(m, nx*(y+ny*z), n, s, d)
		}
	}
}

// encodeCore predicts and quantizes every sample of f into recon and codes
// (each len(f.Data); what they hold on entry is never read) and appends the
// escaped samples to outliers. It returns the codes and the outliers, both
// in visit order.
func encodeCore(f *field.Field, interp Interpolant, ebTable []float64, maxLevel int, recon []float64, codes []int32, outliers []float64) ([]int32, []float64) {
	w := sweep{
		nx: f.Nx, ny: f.Ny, nz: f.Nz, interp: interp,
		recon: recon, codes: codes, outliers: outliers,
		data: f.Data,
	}
	w.all(ebTable, maxLevel)
	return w.codes, w.outliers
}

// decodeCore reconstructs f from its codes (one per sample, which the caller
// has checked) and outliers; f's samples on entry are never read. The codes
// decide how many outliers are consumed; a stream whose list is shorter or
// longer is an error.
func decodeCore(f *field.Field, interp Interpolant, ebTable []float64, maxLevel int, codes []int32, outliers []float64) (*field.Field, error) {
	w := sweep{
		nx: f.Nx, ny: f.Ny, nz: f.Nz, interp: interp,
		recon: f.Data, codes: codes, outliers: outliers,
	}
	w.all(ebTable, maxLevel)
	if err := quant.OutlierErr(w.underrun, len(outliers)-w.outPos); err != nil {
		return nil, fmt.Errorf("sz3: %w", err)
	}
	return f, nil
}

// The kernels. Each pair differs from the others in the prediction alone;
// encode and decode of one mode must keep that expression identical.

func (w *sweep) encodeLinear(i, n, step, d int) {
	data, recon, codes, pos := w.data, w.recon, w.codes, w.pos
	eb, twoEB := w.eb, w.twoEB
	for ; n > 0; n-- {
		pred := 0.5 * (recon[i-d] + recon[i+d])
		c, r := quant.Quantize(data[i], pred, eb, twoEB)
		if c == 0 {
			w.outliers = append(w.outliers, data[i])
		}
		codes[pos], recon[i] = c, r
		pos++
		i += step
	}
	w.pos = pos
}

func (w *sweep) decodeLinear(i, n, step, d int) {
	recon, codes, pos, twoEB := w.recon, w.codes, w.pos, w.twoEB
	for ; n > 0; n-- {
		pred := 0.5 * (recon[i-d] + recon[i+d])
		if c := codes[pos]; c != 0 {
			recon[i] = quant.Dequantize(c, pred, twoEB)
		} else {
			recon[i] = w.nextOutlier()
		}
		pos++
		i += step
	}
	w.pos = pos
}

func (w *sweep) encodeCubic(i, n, step, d int) {
	data, recon, codes, pos := w.data, w.recon, w.codes, w.pos
	eb, twoEB := w.eb, w.twoEB
	for ; n > 0; n-- {
		pred := (-recon[i-3*d] + 9*recon[i-d] + 9*recon[i+d] - recon[i+3*d]) / 16
		c, r := quant.Quantize(data[i], pred, eb, twoEB)
		if c == 0 {
			w.outliers = append(w.outliers, data[i])
		}
		codes[pos], recon[i] = c, r
		pos++
		i += step
	}
	w.pos = pos
}

func (w *sweep) decodeCubic(i, n, step, d int) {
	recon, codes, pos, twoEB := w.recon, w.codes, w.pos, w.twoEB
	for ; n > 0; n-- {
		pred := (-recon[i-3*d] + 9*recon[i-d] + 9*recon[i+d] - recon[i+3*d]) / 16
		if c := codes[pos]; c != 0 {
			recon[i] = quant.Dequantize(c, pred, twoEB)
		} else {
			recon[i] = w.nextOutlier()
		}
		pos++
		i += step
	}
	w.pos = pos
}

func (w *sweep) encodeExtrap(i, n, step, d int) {
	data, recon, codes, pos := w.data, w.recon, w.codes, w.pos
	eb, twoEB := w.eb, w.twoEB
	for ; n > 0; n-- {
		pred := 1.5*recon[i-d] - 0.5*recon[i-3*d]
		c, r := quant.Quantize(data[i], pred, eb, twoEB)
		if c == 0 {
			w.outliers = append(w.outliers, data[i])
		}
		codes[pos], recon[i] = c, r
		pos++
		i += step
	}
	w.pos = pos
}

func (w *sweep) decodeExtrap(i, n, step, d int) {
	recon, codes, pos, twoEB := w.recon, w.codes, w.pos, w.twoEB
	for ; n > 0; n-- {
		pred := 1.5*recon[i-d] - 0.5*recon[i-3*d]
		if c := codes[pos]; c != 0 {
			recon[i] = quant.Dequantize(c, pred, twoEB)
		} else {
			recon[i] = w.nextOutlier()
		}
		pos++
		i += step
	}
	w.pos = pos
}

func (w *sweep) encodeConst(i, n, step, d int) {
	data, recon, codes, pos := w.data, w.recon, w.codes, w.pos
	eb, twoEB := w.eb, w.twoEB
	for ; n > 0; n-- {
		pred := recon[i-d]
		c, r := quant.Quantize(data[i], pred, eb, twoEB)
		if c == 0 {
			w.outliers = append(w.outliers, data[i])
		}
		codes[pos], recon[i] = c, r
		pos++
		i += step
	}
	w.pos = pos
}

func (w *sweep) decodeConst(i, n, step, d int) {
	recon, codes, pos, twoEB := w.recon, w.codes, w.pos, w.twoEB
	for ; n > 0; n-- {
		pred := recon[i-d]
		if c := codes[pos]; c != 0 {
			recon[i] = quant.Dequantize(c, pred, twoEB)
		} else {
			recon[i] = w.nextOutlier()
		}
		pos++
		i += step
	}
	w.pos = pos
}

// nextOutlier consumes the stream's next escaped sample. Past the end of the
// list it yields 0 and records the underrun, which decodeCore reports.
func (w *sweep) nextOutlier() float64 {
	if w.outPos >= len(w.outliers) {
		w.underrun = true
		return 0
	}
	v := w.outliers[w.outPos]
	w.outPos++
	return v
}
