package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro"
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

// TestVerifyVerdict: a scrub says "ok" only when a checksum covered every
// stream. golden-tac-sz3-v3.mrw has a version-1 footer, which carries no
// stream checksums, so its six streams are decode-verified; a flipped byte
// there still decodes, so the scrub must not call the container ok.
func TestVerifyVerdict(t *testing.T) {
	res, err := repro.VerifyFile(context.Background(), "../../internal/core/testdata/golden-tac-sz3-v3.mrw")
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Checked != 0 || res.Decoded != 6 {
		t.Fatalf("scrub: %d faults, %d checksum-verified, %d decode-verified; want 0, 0, 6", len(res.Faults), res.Checked, res.Decoded)
	}
	got := verdict(res)
	if strings.TrimSpace(got) == "ok" || !strings.Contains(got, "no checksum covers 6 of 6 streams") {
		t.Errorf("verdict %q, want one naming the 6 streams no checksum covers", got)
	}
	if got := verdict(&repro.VerifyResult{Streams: 6, Checked: 6}); strings.TrimSpace(got) != "ok" {
		t.Errorf("every stream checksum-verified: verdict %q, want ok", got)
	}
}
