package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeWithinBound(t *testing.T) {
	const eb = 0.01
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := rng.NormFloat64() * 100
		pred := v + rng.NormFloat64()*0.1
		_, recon := Quantize(v, pred, eb, 2*eb)
		if math.Abs(recon-v) > eb+1e-15 {
			t.Fatalf("encoder recon out of bound: |%g-%g| > %g", recon, v, eb)
		}
	}
}

func TestDecoderMatchesEncoderRecon(t *testing.T) {
	const eb = 0.05
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		v := rng.NormFloat64() * 10
		pred := v + rng.NormFloat64()
		code, recon := Quantize(v, pred, eb, 2*eb)
		if code == 0 {
			continue // escaped: the decoder takes v verbatim
		}
		if got := Dequantize(code, pred, 2*eb); got != recon {
			t.Fatalf("decode mismatch at %d: %g vs %g", i, got, recon)
		}
	}
}

func TestOutlierEscape(t *testing.T) {
	// A prediction error of 1.0 vastly exceeds radius*2*eb → escape.
	code, recon := Quantize(1.0, 0.0, 1e-9, 2e-9)
	if code != 0 {
		t.Fatalf("expected escape code 0, got %d", code)
	}
	if recon != 1.0 {
		t.Fatalf("escape must store verbatim, got %g", recon)
	}
}

func TestZeroCodeReservedForEscape(t *testing.T) {
	// Perfect prediction → k = 0 → code = Radius, never 0.
	code, _ := Quantize(3.0, 3.0, 0.5, 1)
	if code != RadiusDefault {
		t.Fatalf("perfect prediction code = %d, want %d", code, RadiusDefault)
	}
}

func TestNaNEscapes(t *testing.T) {
	code, recon := Quantize(math.NaN(), 0, 0.1, 0.2)
	if code != 0 || !math.IsNaN(recon) {
		t.Fatalf("NaN must escape, got code %d recon %v", code, recon)
	}
}

func TestOutlierErr(t *testing.T) {
	if err := OutlierErr(false, 0); err != nil {
		t.Fatalf("balanced pass: %v", err)
	}
	if err := OutlierErr(true, 0); err == nil || err.Error() != "outlier underrun" {
		t.Fatalf("underrun: %v", err)
	}
	if err := OutlierErr(false, 2); err == nil || err.Error() != "2 trailing outliers" {
		t.Fatalf("trailing: %v", err)
	}
}

func TestQuickErrorBoundInvariant(t *testing.T) {
	// Property: for any value/prediction pair, |v − recon| ≤ eb (up to float
	// slop) and the decoder reproduces the encoder's reconstruction.
	prop := func(v, pred float64, ebRaw float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.IsNaN(pred) || math.IsInf(pred, 0) {
			return true
		}
		eb := math.Abs(ebRaw)
		if eb == 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
			eb = 1e-3
		}
		code, recon := Quantize(v, pred, eb, 2*eb)
		if math.Abs(recon-v) > eb*(1+1e-12) {
			return false
		}
		if code == 0 {
			return recon == v // escaped: stored verbatim
		}
		return Dequantize(code, pred, 2*eb) == recon
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
