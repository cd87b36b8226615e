package codec

import (
	"repro/internal/field"
	"repro/internal/postproc"
	"repro/internal/zfp"
)

// zfpCodec adapts the block-wise transform backend.
type zfpCodec struct{}

func (zfpCodec) Name() string   { return "zfp" }
func (zfpCodec) WireID() byte   { return ZFPID }
func (zfpCodec) Lossless() bool { return false }

func (zfpCodec) compress(dst []byte, f *field.Field, p Params) ([]byte, error) {
	return zfp.Compress(dst, f, zfp.Options{Tolerance: p.EB})
}

func (zfpCodec) decompress(dst *field.Field, data []byte) (*field.Field, error) {
	return zfp.Decompress(dst, data)
}

// PostBlockSize is zfp's fixed 4³ transform block.
func (zfpCodec) PostBlockSize(p Params, unitSize int) int { return zfp.BlockSize }

// PostCandidates exploits zfp's underestimation characteristic (§III-B):
// the achieved error sits well below the tolerance, so stronger smoothing
// candidates stay within the bound.
func (zfpCodec) PostCandidates() []float64 { return postproc.ZFPCandidates() }

func (zfpCodec) PadAndAdaptiveEB() bool { return false }
