package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeWithinBound(t *testing.T) {
	q := New(0.01)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := rng.NormFloat64() * 100
		pred := v + rng.NormFloat64()*0.1
		code, recon := q.Encode(v, pred)
		if math.Abs(recon-v) > q.EB+1e-15 {
			t.Fatalf("encoder recon out of bound: |%g-%g| > %g", recon, v, q.EB)
		}
		_ = code
	}
}

func TestDecoderMatchesEncoderRecon(t *testing.T) {
	enc := New(0.05)
	rng := rand.New(rand.NewSource(2))
	n := 5000
	vals := make([]float64, n)
	preds := make([]float64, n)
	codes := make([]int32, n)
	recons := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
		preds[i] = vals[i] + rng.NormFloat64()
		codes[i], recons[i] = enc.Encode(vals[i], preds[i])
	}
	dec := New(0.05)
	dec.Outliers = enc.Outliers
	for i := range vals {
		got := dec.Decode(codes[i], preds[i])
		if got != recons[i] {
			t.Fatalf("decode mismatch at %d: %g vs %g", i, got, recons[i])
		}
	}
}

func TestOutlierEscape(t *testing.T) {
	q := New(1e-9)
	// A prediction error of 1.0 vastly exceeds radius*2*eb → escape.
	code, recon := q.Encode(1.0, 0.0)
	if code != 0 {
		t.Fatalf("expected escape code 0, got %d", code)
	}
	if recon != 1.0 {
		t.Fatalf("escape must store verbatim, got %g", recon)
	}
	if len(q.Outliers) != 1 || q.Outliers[0] != 1.0 {
		t.Fatalf("outliers = %v", q.Outliers)
	}
}

func TestZeroCodeReservedForEscape(t *testing.T) {
	q := New(0.5)
	// Perfect prediction → k = 0 → code = Radius, never 0.
	code, _ := q.Encode(3.0, 3.0)
	if code != RadiusDefault {
		t.Fatalf("perfect prediction code = %d, want %d", code, RadiusDefault)
	}
}

func TestNaNEscapes(t *testing.T) {
	q := New(0.1)
	code, recon := q.Encode(math.NaN(), 0)
	if code != 0 || !math.IsNaN(recon) {
		t.Fatalf("NaN must escape, got code %d recon %v", code, recon)
	}
}

func TestResetDecode(t *testing.T) {
	q := New(1e-9)
	q.Encode(1.0, 0.0)
	q.Encode(2.0, 0.0)
	if q.Decode(0, 0) != 1.0 || q.Decode(0, 0) != 2.0 {
		t.Fatal("outlier order wrong")
	}
	q.ResetDecode()
	if q.Decode(0, 0) != 1.0 {
		t.Fatal("ResetDecode did not rewind")
	}
}

func TestNewPanicsOnZeroEB(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
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
		enc := New(eb)
		code, recon := enc.Encode(v, pred)
		if math.Abs(recon-v) > eb*(1+1e-12) {
			return false
		}
		dec := New(eb)
		dec.Outliers = enc.Outliers
		return dec.Decode(code, pred) == recon
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
