package codec

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/field"
	"repro/internal/flatepool"
)

const (
	flateMagic   = "RAWF"
	flateVersion = 1
)

// flateCodec is the lossless passthrough: the field's raw wire form
// (24-byte dims header + little-endian float64 samples) wrapped in DEFLATE.
// It exists for fields that must survive bit-exactly — segmentation masks,
// particle/halo ID grids, boolean ROI maps — which an error-bounded codec
// would silently corrupt even at tiny bounds. Every float bit pattern,
// NaN payloads included, round-trips unchanged.
type flateCodec struct{}

func (flateCodec) Name() string   { return "flate" }
func (flateCodec) WireID() byte   { return FlateID }
func (flateCodec) Lossless() bool { return true }

// Compress ignores Params entirely: there is no error bound to apply.
func (flateCodec) Compress(f *field.Field, _ Params) ([]byte, error) {
	var raw bytes.Buffer
	raw.Grow(24 + f.Bytes())
	if _, err := f.WriteTo(&raw); err != nil {
		return nil, err
	}
	packed, err := flatepool.Deflate(raw.Bytes())
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(flateMagic)+1+len(packed))
	out = append(out, flateMagic...)
	out = append(out, flateVersion)
	return append(out, packed...), nil
}

func (flateCodec) Decompress(data []byte) (*field.Field, error) {
	if len(data) < len(flateMagic)+1 || string(data[:len(flateMagic)]) != flateMagic {
		return nil, errors.New("flate: bad magic")
	}
	if data[len(flateMagic)] != flateVersion {
		return nil, fmt.Errorf("flate: unsupported version %d", data[len(flateMagic)])
	}
	body := data[len(flateMagic)+1:]
	// DEFLATE expands at most ~1032:1, so the compressed size bounds the
	// raw size any intact payload can declare — a corrupt header claiming
	// huge dimensions is rejected before the field is allocated.
	maxRaw := int64(len(body))*1032 + 64
	in, err := flatepool.Inflate(body)
	if err != nil {
		return nil, fmt.Errorf("flate: %w", err)
	}
	defer in.Release()
	f, err := field.ReadFromLimit(bytes.NewReader(in.Bytes()), maxRaw)
	if err != nil {
		return nil, fmt.Errorf("flate: %w", err)
	}
	return f, nil
}

// PostBlockSize is zero: a lossless codec introduces no block artifacts.
func (flateCodec) PostBlockSize(Params, int) int { return 0 }

func (flateCodec) PostCandidates() []float64 { return nil }

func (flateCodec) PadAndAdaptiveEB() bool { return false }
