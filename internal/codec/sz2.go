package codec

import (
	"repro/internal/field"
	"repro/internal/postproc"
	"repro/internal/sz2"
)

// sz2Codec adapts the block-wise Lorenzo/regression backend.
type sz2Codec struct{}

func (sz2Codec) Name() string   { return "sz2" }
func (sz2Codec) WireID() byte   { return SZ2ID }
func (sz2Codec) Lossless() bool { return false }

func (sz2Codec) compress(dst []byte, f *field.Field, p Params) ([]byte, error) {
	return sz2.Compress(dst, f, sz2.Options{EB: p.EB, BlockSize: p.SZ2BlockSize})
}

func (sz2Codec) decompress(dst *field.Field, data []byte) (*field.Field, error) {
	return sz2.Decompress(dst, data)
}

// PostBlockSize is sz2's own block edge: the block-local regression planes
// disagree at shared faces, the artifact the Bézier post-processor repairs.
func (sz2Codec) PostBlockSize(p Params, unitSize int) int { return p.SZ2BlockSize }

func (sz2Codec) PostCandidates() []float64 { return postproc.SZ2Candidates() }

func (sz2Codec) PadAndAdaptiveEB() bool { return false }
