package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckROIFrac: -roifrac 0 used to reach the library, which reads 0 as
// its default and compressed at 0.5; it is a usage error naming the range,
// as are NaN and fractions outside (0, 1].
func TestCheckROIFrac(t *testing.T) {
	for _, v := range []float64{0, math.NaN(), -0.25, 1.5, math.Inf(1)} {
		err := checkROIFrac(v)
		if err == nil || !strings.Contains(err.Error(), "(0, 1]") {
			t.Fatalf("-roifrac %v: error %v, want one naming (0, 1]", v, err)
		}
	}
	for _, v := range []float64{0.01, 0.5, 1} {
		if err := checkROIFrac(v); err != nil {
			t.Fatalf("-roifrac %v: %v", v, err)
		}
	}
}
