// Package quant implements the error-controlled linear-scaling quantizer
// shared by the SZ-style compressors. Given a prediction p for a true value
// v and an error bound eb, the quantizer emits an integer code such that the
// reconstruction r = p + 2·eb·code satisfies |v − r| ≤ eb. Values whose code
// would overflow the code range are escaped as "unpredictable" and stored
// verbatim, preserving the bound exactly. Callers keep the escaped values
// themselves, in visit order, and report a decode that consumed a different
// number of them with OutlierErr.
package quant

import (
	"errors"
	"fmt"
	"math"
)

// RadiusDefault is the default quantization code radius (symmetric range of
// representable codes), matching SZ's 16-bit default (±32768).
const RadiusDefault = 32768

// Quantize maps value v, predicted as pred, to its code under the error
// bound eb and returns the reconstruction the decoder will produce from that
// code (which the encoder must use in place of v for subsequent
// predictions). twoEB is 2·eb, passed in so that a caller's loop computes it
// once. Code 0 is the "unpredictable" escape: the value must be stored
// verbatim, and the reconstruction is v itself. Predictable codes lie in
// (0, 2·RadiusDefault).
//
// The sz2 and sz3 kernels call this once per sample and count on it being
// inlined into their loops; it sits just inside the compiler's budget (check
// with go build -gcflags=-m=2 after touching it).
func Quantize(v, pred, eb, twoEB float64) (code int32, recon float64) {
	k := math.Floor((v-pred)/twoEB + 0.5)
	// Out of code range, or not a number at all (NaN fails every comparison,
	// ±Inf the bound): the negated comparison catches all three.
	if !(math.Abs(k) < RadiusDefault) {
		return 0, v
	}
	r := pred + twoEB*k
	// Guard against floating-point rounding pushing the reconstruction out
	// of bounds (can happen when |pred| >> eb) and against non-finite
	// reconstructions from overflowing 2·eb. The negated comparison is
	// deliberate: it also trips when r is NaN.
	if !(math.Abs(v-r) <= eb) {
		return 0, v
	}
	return int32(int(k)) + RadiusDefault, r
}

// Dequantize reconstructs a value from a predictable (non-zero) code and the
// prediction the encoder used; twoEB is 2·eb as in Quantize.
func Dequantize(code int32, pred, twoEB float64) float64 {
	return pred + twoEB*float64(int(code)-RadiusDefault)
}

// OutlierErr is the error for a decode pass that ran out of outliers (met a
// zero code with none left) or left some unconsumed, nil if neither.
func OutlierErr(underrun bool, trailing int) error {
	switch {
	case underrun:
		return errors.New("outlier underrun")
	case trailing > 0:
		return fmt.Errorf("%d trailing outliers", trailing)
	}
	return nil
}
