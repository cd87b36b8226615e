// Package codec is the backend-compressor seam of the container pipeline:
// every behavior that used to be a per-backend switch in core, the reader,
// or the servers — compress, decompress, post-processing block size and
// intensity candidates, name/flag/query parsing — is a method of a Codec,
// looked up in a closed table by wire ID (the byte containers and index
// footers store) or by name (what flags and query parameters carry).
//
// The table holds four codecs: the three error-bounded lossy backends of
// the paper (sz3, sz2, zfp — §III-B's multi-backend design) plus a lossless
// raw+flate passthrough for fields that must survive bit-exactly (masks,
// particle IDs). Adding a backend is one file implementing the backend
// interface plus an entry in the table at a new wire ID; core, the reader,
// and the servers pick it up without modification.
//
// Destinations: Compress appends to a caller's buffer and Decompress
// decodes into a caller's field when given one, so a caller coding many
// streams — a container write or a full decode — recycles each stream's
// memory for the next instead of allocating per stream. Without one, each
// call allocates its result.
//
// Wire IDs are a stable, append-only namespace: they appear in container
// headers, per-stream codec bytes (format v4), and index footers, so an ID
// must never be reused or renumbered.
package codec

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/field"
	"repro/internal/obs"
)

// Wire IDs of the built-in codecs. These match the historical
// core.Compressor byte values, so every container ever written remains
// decodable through the table.
const (
	SZ3ID   byte = 0 // global interpolation (default)
	SZ2ID   byte = 1 // block-wise Lorenzo/regression
	ZFPID   byte = 2 // block-wise transform
	FlateID byte = 3 // lossless raw+flate passthrough
)

// Params carries the compression-time knobs a codec may consume. It is the
// union of all backends' options; each codec reads only its own fields and
// ignores the rest (sz2 never sees Interp, flate ignores everything).
type Params struct {
	// EB is the absolute error bound (> 0 for the lossy codecs; ignored by
	// lossless ones).
	EB float64
	// AdaptiveEB enables the per-interpolation-level bound
	// eb_l = eb / min(α^(L−l), β) (sz3 only).
	AdaptiveEB bool
	// Alpha and Beta parameterize AdaptiveEB.
	Alpha, Beta float64
	// SZ2BlockSize overrides sz2's block edge (0 = the backend default).
	SZ2BlockSize int
	// Interp selects the sz3 interpolant, as its wire byte.
	Interp byte
}

// Codec is one compression backend behind the container pipeline: a table
// entry wrapping the backend's implementation. It is safe for concurrent
// use: the pipeline calls Compress and Decompress from many worker
// goroutines at once.
type Codec struct{ backend }

// Compress encodes one field under p. The output is self-describing:
// Decompress needs no side information. Given a dst, the stream is appended
// to it (dst[0]; only the first is read) and may alias its array, so a
// caller that has written one stream out can hand its buffer to the next;
// Compress(f, p) is the same call with a nil dst.
func (c Codec) Compress(f *field.Field, p Params, dst ...[]byte) ([]byte, error) {
	return c.compress(first(dst), f, p)
}

// Decompress decodes a payload produced by Compress. Given a non-nil dst
// (dst[0]), it decodes into that field, reshaped by field.Reuse, and returns
// it; the bits are a fresh decode's whatever the field held before.
// Decompress(data) is the same call with a nil dst: a new field.
func (c Codec) Decompress(data []byte, dst ...*field.Field) (*field.Field, error) {
	return c.decompress(first(dst), data)
}

// first returns the optional trailing argument, or its zero value. The
// slice does not escape, so a caller passing one costs no allocation.
func first[T any](dst []T) (d T) {
	if len(dst) > 0 {
		d = dst[0]
	}
	return d
}

// backend is what each codec implements; Codec adds the calling
// convention.
type backend interface {
	// Name is the codec's stable lowercase name ("sz3"), used by CLI flags
	// and HTTP query parameters.
	Name() string
	// WireID is the byte stored in container headers, per-stream codec
	// bytes, and index footers. Stable forever.
	WireID() byte
	// Lossless reports whether Decompress(Compress(f)) == f bit-exactly.
	// Lossless codecs are skipped by error-bounded post-processing and by
	// intensity sampling.
	Lossless() bool
	// compress appends the encoding of f under p to dst (nil: a new
	// buffer).
	compress(dst []byte, f *field.Field, p Params) ([]byte, error)
	// decompress decodes data into dst, reshaped (nil: a new field).
	decompress(dst *field.Field, data []byte) (*field.Field, error)
	// PostBlockSize is the block edge whose boundaries the error-bounded
	// post-processor should smooth for this backend, given the pipeline's
	// unit block size at the level being processed (§III-B: the partition
	// size for multi-resolution data vs the backend's own block size).
	// Zero means the codec produces no block artifacts to smooth.
	PostBlockSize(p Params, unitSize int) int
	// PostCandidates is the paper's intensity candidate set for this
	// backend's artifact profile (nil when post-processing never applies).
	PostCandidates() []float64
	// PadAndAdaptiveEB reports whether the workflow should default the
	// paper's SZ3MR improvements — XY padding of linear merges and the
	// per-interpolation-level error bound — on for this codec. True only
	// for interpolation-based backends; block-wise and lossless codecs
	// ignore both.
	PadAndAdaptiveEB() bool
}

// codecs is the closed set of backends, indexed by wire ID.
var codecs = [...]Codec{SZ3ID: {sz3Codec{}}, SZ2ID: {sz2Codec{}}, ZFPID: {zfpCodec{}}, FlateID: {flateCodec{}}}

// ByID looks a codec up by its wire ID.
func ByID(id byte) (Codec, bool) {
	if int(id) >= len(codecs) {
		return Codec{}, false
	}
	return codecs[id], true
}

// ByName looks a codec up by name (case-insensitive).
func ByName(name string) (Codec, bool) {
	for _, c := range codecs {
		if strings.EqualFold(c.Name(), name) {
			return c, true
		}
	}
	return Codec{}, false
}

// Names returns the codec names, sorted — the vocabulary CLI flags and
// query parameters accept, and what error messages enumerate.
func Names() []string {
	out := make([]string, 0, len(codecs))
	for _, c := range codecs {
		out = append(out, c.Name())
	}
	sort.Strings(out)
	return out
}

// DecompressCtx is Decompress under a trace span: when the context carries
// a trace, the decode appears as a "decode" span tagged with the codec name
// and payload size. Without a trace it costs one nil check.
func DecompressCtx(ctx context.Context, c Codec, data []byte, dst ...*field.Field) (*field.Field, error) {
	_, sp := obs.StartSpan(ctx, "decode")
	if sp != nil {
		sp.SetTag("codec", c.Name())
		sp.SetTag("bytes", strconv.Itoa(len(data)))
		defer sp.End()
	}
	return c.decompress(first(dst), data)
}

// ErrUnknownID formats the standard unknown-wire-ID error, enumerating the
// known codecs so the message is actionable.
func ErrUnknownID(id byte) error {
	return fmt.Errorf("codec: unknown codec ID %d (registered: %s)", id, strings.Join(Names(), ", "))
}

// ErrUnknownName formats the standard unknown-name error.
func ErrUnknownName(name string) error {
	return fmt.Errorf("codec: unknown codec %q (registered: %s)", name, strings.Join(Names(), ", "))
}
