package codec

import (
	"repro/internal/field"
	"repro/internal/postproc"
	"repro/internal/sz3"
)

// sz3Codec adapts the global interpolation backend (the default, and the
// substrate of the paper's SZ3MR improvements).
type sz3Codec struct{}

func (sz3Codec) Name() string   { return "sz3" }
func (sz3Codec) WireID() byte   { return SZ3ID }
func (sz3Codec) Lossless() bool { return false }

func (sz3Codec) compress(dst []byte, f *field.Field, p Params) ([]byte, error) {
	so := sz3.Options{EB: p.EB, Interp: sz3.Interpolant(p.Interp)}
	if p.AdaptiveEB {
		so.LevelEB = sz3.AdaptiveLevelEB(p.EB, p.Alpha, p.Beta)
	}
	return sz3.Compress(dst, f, so)
}

func (sz3Codec) decompress(dst *field.Field, data []byte) (*field.Field, error) {
	return sz3.Decompress(dst, data)
}

// PostBlockSize is the pipeline's unit block size: sz3 itself is global
// (no block artifacts), but the partitioned multi-resolution layout
// introduces discontinuities at unit-block boundaries (§III-B: "the
// partition size for multi-resolution data is larger than the block sizes
// used by SZ/ZFP — 16 vs 4").
func (sz3Codec) PostBlockSize(p Params, unitSize int) int { return unitSize }

func (sz3Codec) PostCandidates() []float64 { return postproc.SZ2Candidates() }

func (sz3Codec) PadAndAdaptiveEB() bool { return true }
