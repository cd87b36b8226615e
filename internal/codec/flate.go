package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

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

// compress ignores Params entirely: there is no error bound to apply.
func (flateCodec) compress(dst []byte, f *field.Field, _ Params) ([]byte, error) {
	var raw bytes.Buffer
	raw.Grow(rawHeader + f.Bytes())
	if _, err := f.WriteTo(&raw); err != nil {
		return nil, err
	}
	out := append(dst, flateMagic...)
	return flatepool.Deflate(append(out, flateVersion), raw.Bytes())
}

// rawHeader is the size of the raw wire form's dims header.
const rawHeader = 24

func (flateCodec) decompress(dst *field.Field, data []byte) (*field.Field, error) {
	if len(data) < len(flateMagic)+1 || string(data[:len(flateMagic)]) != flateMagic {
		return nil, errors.New("flate: bad magic")
	}
	if data[len(flateMagic)] != flateVersion {
		return nil, fmt.Errorf("flate: unsupported version %d", data[len(flateMagic)])
	}
	in, err := flatepool.Inflate(data[len(flateMagic)+1:])
	if err != nil {
		return nil, fmt.Errorf("flate: %w", err)
	}
	defer in.Release()
	// The whole raw form is in memory, so its length bounds the samples a
	// header may declare before the field is allocated.
	raw := in.Bytes()
	if len(raw) < rawHeader {
		return nil, errors.New("flate: truncated header")
	}
	nx, ny, nz, n, err := field.CheckDims(binary.LittleEndian.Uint64(raw), binary.LittleEndian.Uint64(raw[8:]), binary.LittleEndian.Uint64(raw[16:]))
	if err != nil {
		return nil, fmt.Errorf("flate: %w", err)
	}
	if n > int64(len(raw)-rawHeader)/8 {
		return nil, fmt.Errorf("flate: %dx%dx%d field in %d bytes", nx, ny, nz, len(raw))
	}
	f := field.Reuse(dst, nx, ny, nz)
	for i := range f.Data {
		f.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[rawHeader+8*i:]))
	}
	return f, nil
}

// PostBlockSize is zero: a lossless codec introduces no block artifacts.
func (flateCodec) PostBlockSize(Params, int) int { return 0 }

func (flateCodec) PostCandidates() []float64 { return nil }

func (flateCodec) PadAndAdaptiveEB() bool { return false }
