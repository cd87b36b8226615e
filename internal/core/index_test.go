package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/index"
	"repro/internal/synth"
)

// TestFooterMatchesBodyScan locks the two ways of obtaining a container
// index against each other for every arrangement: the footer written by
// Compress must equal the index synthesized by BuildIndex's sequential
// body scan, and every stream extent it names must slice out the exact
// payload the sequential parser sees.
func TestFooterMatchesBodyScan(t *testing.T) {
	f := synth.Generate(synth.Nyx, 32, 19)
	h, err := grid.BuildAMR(f, 8, []float64{0.3, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	eb := f.ValueRange() * 1e-3
	for _, arr := range []Arrangement{ArrangeLinear, ArrangeStack, ArrangeTAC, ArrangeZOrder1D} {
		opt := Options{EB: eb, Arrangement: arr, Pad: arr == ArrangeLinear, AdaptiveEB: true}
		c, err := CompressHierarchy(h, opt)
		if err != nil {
			t.Fatalf("%v: %v", arr, err)
		}
		fromFooter, err := index.ReadFrom(bytes.NewReader(c.Blob), int64(len(c.Blob)))
		if err != nil {
			t.Fatalf("%v: footer: %v", arr, err)
		}
		fromScan, err := BuildIndex(c.Blob)
		if err != nil {
			t.Fatalf("%v: scan: %v", arr, err)
		}
		// Section CRC included: the scan synthesizes the very section the
		// writer serialized, so both name the same container version.
		if !reflect.DeepEqual(fromFooter, fromScan) {
			t.Fatalf("%v: footer index differs from body scan:\nfooter %+v\nscan   %+v", arr, fromFooter, fromScan)
		}
		// Each indexed stream must decode standalone: checksum, declared
		// size and box shape are DecodeIndexed's own checks.
		for si, s := range fromFooter.Streams {
			payload := c.Blob[s.Offset : s.Offset+s.Len]
			if _, err := DecodeIndexed(context.Background(), fromFooter, si, payload, nil); err != nil {
				t.Fatalf("%v: %v", arr, err)
			}
		}
	}
}

// TestOptionsIndexRoundTrip locks the Options ↔ index.Opts echo.
func TestOptionsIndexRoundTrip(t *testing.T) {
	o := Options{
		EB: 2.5e-3, Compressor: SZ2, Arrangement: ArrangeTAC,
		Pad: true, PadKind: 2, AdaptiveEB: true,
		Alpha: 2.25, Beta: 8, SZ2BlockSize: 260, Interp: 1,
	}
	back := OptionsFromIndex(indexOpts(o))
	if !reflect.DeepEqual(back, o) {
		t.Fatalf("round trip mismatch: %+v != %+v", back, o)
	}
}
