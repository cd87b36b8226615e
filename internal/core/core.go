// Package core implements the paper's primary contribution: SZ3MR, a
// multi-resolution compression pipeline that arranges each level's unit
// blocks into a compressor-friendly layout (§III-A), optionally pads the two
// small dimensions with extrapolated layers, applies a per-interpolation-
// level adaptive error bound, and drives one of three error-bounded
// compressors (SZ3 / SZ2 / ZFP stand-ins) over the result.
//
// The same pipeline, configured with the paper's baseline arrangements,
// reproduces the comparison systems: Baseline-SZ3 (plain linear merge),
// AMRIC-SZ3 (cubic stacking), TAC-SZ3 (adjacency boxes compressed
// separately), and a zMesh-style 1D z-order layout.
//
// The two pipeline stages are exposed separately — Prepare (the paper's
// "pre-processing": collecting data into the compression buffer) and
// Compressed (compression proper) — so the in-situ output-time breakdown of
// Table IV can be measured.
//
// Reading a container back has one path (decode.go): every decoder acts on
// the container index — the CRC-covered footer, or BuildIndex's validated
// body scan when there is none — and DecodeIndexed and PlaceIndexed are the
// only decode and place sites, shared by Decompress, package reader and the
// scrub.
//
// Allocation is per call, not per stream. Prepare cuts a TAC level's boxes
// as views of one slab. A write deflates each stream into the buffer of one
// already written, and a full decode decodes each stream into the field of
// one already placed; both recycle through a free list local to the call
// (spares). So a write allocates its records, slabs and a buffer per stream
// in its window (8 per worker), a decode its index, hierarchy and a field
// per worker, whatever the stream count (TestTACAllocsFlatInStreams). No
// free list outlives a call: one kept for the process would hold the
// largest streams it ever saw for its whole life, a retention cost with no
// bound the caller can see. What a stream needs only while it is coded is
// another matter: sz3, sz2, huffman, flatepool and field keep those
// working arrays in a sync.Pool, each with a cap on what one pooled item
// may hold. That is not such a free list: garbage collection empties a
// sync.Pool, so its retention lasts until the second collection after the
// last use.
// The reader's brick paths decode into fresh fields, because the brick
// cache keeps them.
package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"

	"repro/internal/codec"
	"repro/internal/faultio"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/parallel"
	"repro/internal/postproc"
	"repro/internal/sz2"
	"repro/internal/sz3"
	"repro/internal/wire"
)

// Container format versions. Version 2 is the oldest body this package
// reads (version 1 stored SZ2BlockSize in a single byte); version 3 appends
// a self-describing block-index footer (internal/index) after the last
// stream (the v3 body is byte-identical to a v2 body; decoders act on the
// footer when it is intact and scan the body otherwise, which is also how
// version-2 containers remain readable); version 4 adds one codec wire-ID
// byte per stream so levels may use different codecs
// (Options.LevelCodecs). Containers whose levels all share the header codec
// are still written as version 3, byte-identical to before — version 4
// appears on the wire only when a level actually overrides the codec.
const (
	// containerMagic opens every container; the version byte follows it.
	containerMagic = "MRWF"
	// containerVersionV2 is the oldest body read: SZ2BlockSize a uvarint.
	containerVersionV2 = 2
	// containerVersion (v3) appended the seekable index footer.
	containerVersion = 3
	// containerVersionMixed (v4) added a per-stream codec byte.
	containerVersionMixed = 4
)

// maxSZ2BlockSize bounds SZ2BlockSize on write: large enough for any real
// block size, and the bound index.ParseHeader holds the field to on read.
const maxSZ2BlockSize = 1 << 30

// Compressor selects a backend codec by its wire ID (see internal/codec;
// the constants below alias the codec table's IDs). Any ID in that table
// is valid here — the pipeline dispatches through codec.ByID, never
// through per-backend switches.
type Compressor byte

// Built-in backend codecs.
const (
	SZ3   = Compressor(codec.SZ3ID)   // global interpolation (default)
	SZ2   = Compressor(codec.SZ2ID)   // block-wise Lorenzo/regression
	ZFP   = Compressor(codec.ZFPID)   // block-wise transform
	Flate = Compressor(codec.FlateID) // lossless raw+flate passthrough
)

func (c Compressor) String() string {
	if cd, ok := codec.ByID(byte(c)); ok {
		return strings.ToUpper(cd.Name())
	}
	return fmt.Sprintf("Compressor(%d)", byte(c))
}

// Arrangement selects how a level's unit blocks are laid out before
// compression (Fig. 6 of the paper); layout holds its one definition.
type Arrangement = layout.Arrangement

// Arrangements, under the names the pipeline's callers use.
const (
	ArrangeLinear   = layout.Linear
	ArrangeStack    = layout.Stack
	ArrangeTAC      = layout.TAC
	ArrangeZOrder1D = layout.ZOrder1D
)

// Options configures the multi-resolution pipeline.
type Options struct {
	// EB is the absolute error bound applied to every level (> 0).
	EB float64
	// Compressor selects the backend (default SZ3).
	Compressor Compressor
	// Arrangement selects the unit-block layout (default ArrangeLinear).
	Arrangement Arrangement
	// Pad enables the paper's padding improvement: one linearly-extrapolated
	// layer on each small dimension of a linear merge, applied only when the
	// unit block size exceeds 4 (the overhead analysis of §III-A).
	Pad bool
	// PadKind selects the extrapolation (default layout.PadLinear).
	PadKind layout.PadKind
	// AdaptiveEB enables the per-interpolation-level error bound
	// eb_l = eb / min(α^(L−l), β) for the SZ3 backend.
	AdaptiveEB bool
	// Alpha and Beta parameterize AdaptiveEB (defaults 2.25 and 8).
	Alpha, Beta float64
	// SZ2BlockSize overrides SZ2's block size (default 4, the AMRIC-tuned
	// value for multi-resolution data).
	SZ2BlockSize int
	// Interp selects the SZ3 interpolant (default linear).
	Interp sz3.Interpolant
	// Workers bounds the number of goroutines compressing (or decompressing)
	// backend streams concurrently — one stream per merged level, one per
	// TAC box. 0 means runtime.GOMAXPROCS(0); 1, or any negative value,
	// gives fully serial execution. The container bytes are identical for
	// every Workers value.
	Workers int
	// LevelCodecs overrides the codec per resolution level (key = level,
	// 0 = finest); levels not named use Compressor. The canonical use is
	// mixing precision across the hierarchy — coarse levels lossless
	// (Flate), fine levels error-bounded — or keeping mask/ID fields
	// bit-exact. A container with at least one effective override is
	// written as format version 4 (one codec wire-ID byte per stream);
	// without overrides the bytes are identical to version 3.
	LevelCodecs map[int]Compressor
}

// codecFor returns the codec compressing (and decompressing) a level's
// streams: the per-level override when present, else the container codec.
func (o *Options) codecFor(level int) Compressor {
	if c, ok := o.LevelCodecs[level]; ok {
		return c
	}
	return o.Compressor
}

// params flattens the options into the codec-facing parameter set.
func (o Options) params() codec.Params {
	return codec.Params{
		EB:           o.EB,
		AdaptiveEB:   o.AdaptiveEB,
		Alpha:        o.Alpha,
		Beta:         o.Beta,
		SZ2BlockSize: o.SZ2BlockSize,
		Interp:       byte(o.Interp),
	}
}

func (o *Options) withDefaults() Options {
	v := *o
	if v.Alpha == 0 {
		v.Alpha = 2.25
	}
	if v.Beta == 0 {
		v.Beta = 8
	}
	if v.SZ2BlockSize == 0 {
		v.SZ2BlockSize = sz2.MultiResBlockSize
	}
	v.Workers = parallel.Resolve(v.Workers)
	return v
}

// SZ3MROptions returns the paper's full SZ3MR configuration (linear merge +
// padding + adaptive error bound), the "Ours (pad+eb)" curve.
func SZ3MROptions(eb float64) Options {
	return Options{EB: eb, Compressor: SZ3, Arrangement: ArrangeLinear, Pad: true, AdaptiveEB: true}
}

// SZ3MRPadOnlyOptions returns the intermediate "Ours (pad)" configuration.
func SZ3MRPadOnlyOptions(eb float64) Options {
	return Options{EB: eb, Compressor: SZ3, Arrangement: ArrangeLinear, Pad: true}
}

// BaselineSZ3Options returns the plain linear-merge SZ3 baseline.
func BaselineSZ3Options(eb float64) Options {
	return Options{EB: eb, Compressor: SZ3, Arrangement: ArrangeLinear}
}

// AMRICSZ3Options returns the AMRIC-style cubic-stacking SZ3 configuration.
func AMRICSZ3Options(eb float64) Options {
	return Options{EB: eb, Compressor: SZ3, Arrangement: ArrangeStack}
}

// TACSZ3Options returns the TAC-style adjacency-merge SZ3 configuration.
func TACSZ3Options(eb float64) Options {
	return Options{EB: eb, Compressor: SZ3, Arrangement: ArrangeTAC}
}

// AMRICSZ2Options returns AMRIC's SZ2 configuration for multi-resolution
// data (linear merge, 4³ SZ2 blocks) used by the post-processing tables.
func AMRICSZ2Options(eb float64) Options {
	return Options{EB: eb, Compressor: SZ2, Arrangement: ArrangeLinear}
}

// MRZFPOptions returns the ZFP backend over a linear merge.
func MRZFPOptions(eb float64) Options {
	return Options{EB: eb, Compressor: ZFP, Arrangement: ArrangeLinear}
}

// preparedLevel is one level's compression-ready buffers.
type preparedLevel struct {
	blocks [][3]int       // merge order
	merged *field.Field   // linear/stack/zorder arrangements (nil if empty)
	padded bool           // whether merged carries pad layers
	boxes  []layout.Box   // TAC arrangement
	boxFld []*field.Field // TAC box data
}

// streams is the number of streams the level is written as.
func (pl *preparedLevel) streams() int {
	if pl.merged != nil {
		return 1
	}
	return len(pl.boxFld)
}

// Prepared holds the output of the pre-processing stage: merged (and
// possibly padded) per-level arrays ready for the backend compressor.
type Prepared struct {
	nx, ny, nz int
	blockB     int
	opt        Options
	levels     []preparedLevel
	payload    int // raw multi-resolution payload bytes
}

// Prepare runs the pre-processing stage: extract each level's unit blocks
// and arrange (and pad) them into compression buffers.
func Prepare(h *grid.Hierarchy, opt Options) (*Prepared, error) {
	if !(opt.EB > 0) {
		return nil, errors.New("core: error bound must be positive")
	}
	srcs := make([]layout.Source, len(h.Levels))
	for li := range h.Levels {
		srcs[li] = layout.LevelSource(h, li)
	}
	return PrepareSources(h.Nx, h.Ny, h.Nz, h.BlockB, srcs, opt)
}

// PrepareSources is Prepare over the levels of an nx×ny×nz domain of
// blockB³ blocks, read through their layout sources (level l's unit edge is
// blockB/2^l). Every unit block must be owned by exactly one level. It
// leaves the error bound as opt has it, which may be zero: a caller whose
// bound depends on the arranged samples (LevelExtremes) sets it with SetEB
// before compressing.
func PrepareSources(nx, ny, nz, blockB int, levels []layout.Source, opt Options) (*Prepared, error) {
	if !opt.Arrangement.Valid() {
		return nil, fmt.Errorf("core: unknown arrangement %d", opt.Arrangement)
	}
	if blockB <= 0 {
		return nil, fmt.Errorf("core: block size %d", blockB)
	}
	var buf [16][]bool
	masks := buf[:0]
	for _, src := range levels {
		masks = append(masks, src.Owned)
	}
	if err := grid.CheckOwnership((nx/blockB)*(ny/blockB)*(nz/blockB), masks); err != nil {
		return nil, err
	}
	opt = (&opt).withDefaults()
	p := &Prepared{nx: nx, ny: ny, nz: nz, blockB: blockB, opt: opt}
	for _, src := range levels {
		var pl preparedLevel
		if opt.Arrangement == ArrangeTAC {
			pl.boxes = src.TACBoxes()
			pl.boxFld = src.Boxes(pl.boxes)
			for _, f := range pl.boxFld {
				p.payload += f.Bytes()
			}
		} else {
			m := src.Merge(opt.Arrangement, opt.Pad && src.U > 4, opt.PadKind)
			pl.blocks, pl.merged, pl.padded = m.Blocks, m.Data, m.Padded
			p.payload += len(m.Blocks) * src.U * src.U * src.U * 8
		}
		p.levels = append(p.levels, pl)
	}
	return p, nil
}

// SetEB sets the absolute error bound the streams are compressed under.
func (p *Prepared) SetEB(eb float64) error {
	if !(eb > 0) {
		return errors.New("core: error bound must be positive")
	}
	p.opt.EB = eb
	return nil
}

// PayloadBytes returns the raw multi-resolution payload the buffers hold —
// 8 bytes per owned sample, pads and stacking filler excluded — the
// numerator of the compression ratio.
func (p *Prepared) PayloadBytes() int { return p.payload }

// LevelExtremes returns the extremes (field.BlockExtremes) of level li's
// samples as arranged: pad layers are skipped, and a stacked level's filler
// slots, copies of an owned block, change no extreme.
func (p *Prepared) LevelExtremes(li int) (lo, hi float64) {
	pl := &p.levels[li]
	lo, hi = math.Inf(1), math.Inf(-1)
	fold := func(f *field.Field, pad int) {
		l, h := f.BlockExtremes(0, 0, 0, f.Nx-pad, f.Ny-pad, f.Nz)
		lo, hi = field.FoldRange(lo, hi, l, h)
	}
	for _, f := range pl.boxFld {
		fold(f, 0)
	}
	if pl.merged != nil {
		pad := 0
		if pl.padded {
			pad = 1
		}
		fold(pl.merged, pad)
	}
	return lo, hi
}

// compressField dispatches one buffer to the codec whose wire ID is c,
// which appends the stream to dst.
func compressField(dst []byte, f *field.Field, opt Options, c Compressor) ([]byte, error) {
	cd, ok := codec.ByID(byte(c))
	if !ok {
		return nil, fmt.Errorf("core: %w", codec.ErrUnknownID(byte(c)))
	}
	return cd.Compress(f, opt.params(), dst)
}

// decompressFieldCtx decodes data under the codec whose wire ID is c into
// dst (nil for a new field).
func decompressFieldCtx(ctx context.Context, data []byte, c Compressor, dst *field.Field) (f *field.Field, err error) {
	cd, ok := codec.ByID(byte(c))
	if !ok {
		return nil, fmt.Errorf("core: %w", codec.ErrUnknownID(byte(c)))
	}
	// Corrupt input can drive a codec into an out-of-range panic before its
	// own validation notices the damage; convert that to a typed Corrupt
	// error here — the one dispatch point every decode path funnels through
	// — so a single bad stream cannot take down a serving process (worker
	// pools do not recover panics in their goroutines).
	defer func() {
		if r := recover(); r != nil {
			f, err = nil, faultio.Corrupt(fmt.Errorf("core: %s decode panicked: %v", cd.Name(), r))
		}
	}()
	return codec.DecompressCtx(ctx, cd, data, dst)
}

// Compressed is a serialized multi-resolution compression result.
type Compressed struct {
	// Blob is the self-describing container.
	Blob []byte
	// LevelBytes records the compressed payload per level (diagnostics).
	LevelBytes []int
}

// Size returns the container size in bytes.
func (c *Compressed) Size() int { return len(c.Blob) }

// compressJob names one backend stream to produce: a level's merged field
// (box < 0) or one TAC box, under the level's codec.
type compressJob struct {
	level, box int
	codec      Compressor
	f          *field.Field
}

// streams is the number of streams the container carries.
func (p *Prepared) streams() int {
	n := 0
	for i := range p.levels {
		n += p.levels[i].streams()
	}
	return n
}

// jobs lists every stream the container will carry, in serialization order.
func (p *Prepared) jobs() []compressJob {
	jobs := make([]compressJob, 0, p.streams())
	for li, pl := range p.levels {
		c := p.opt.codecFor(li)
		if p.opt.Arrangement == ArrangeTAC {
			for bi, bf := range pl.boxFld {
				jobs = append(jobs, compressJob{li, bi, c, bf})
			}
			continue
		}
		if pl.merged != nil {
			jobs = append(jobs, compressJob{li, -1, c, pl.merged})
		}
	}
	return jobs
}

// streamErr annotates a stream-scoped error with its level (and TAC box).
func streamErr(level, box int, err error) error {
	if box >= 0 {
		return fmt.Errorf("core: level %d box %d: %w", level, box, err)
	}
	return fmt.Errorf("core: level %d: %w", level, err)
}

// compressStream dispatches one job to its codec with level/box error
// context; the stream is appended to dst.
func (p *Prepared) compressStream(j compressJob, dst []byte) ([]byte, error) {
	s, err := compressField(dst, j.f, p.opt, j.codec)
	if err != nil {
		return nil, streamErr(j.level, j.box, err)
	}
	return s, nil
}

// wireVersion picks the container format version: 4 only when some level
// that actually emits a stream overrides the codec, 3 (byte-identical to
// every single-codec container) otherwise.
func (p *Prepared) wireVersion() byte {
	for li := range p.levels {
		if p.levels[li].streams() == 0 {
			continue // empty level: no stream carries its codec
		}
		if p.opt.codecFor(li) != p.opt.Compressor {
			return containerVersionMixed
		}
	}
	return containerVersion
}

// checkCompressOptions validates the write-time option invariants.
func (p *Prepared) checkCompressOptions() error {
	if !(p.opt.EB > 0) {
		return errors.New("core: error bound must be positive")
	}
	if p.opt.SZ2BlockSize < 0 || p.opt.SZ2BlockSize > maxSZ2BlockSize {
		return fmt.Errorf("core: SZ2 block size %d out of range [0, %d]", p.opt.SZ2BlockSize, maxSZ2BlockSize)
	}
	if _, ok := codec.ByID(byte(p.opt.Compressor)); !ok {
		return fmt.Errorf("core: %w", codec.ErrUnknownID(byte(p.opt.Compressor)))
	}
	for l, c := range p.opt.LevelCodecs {
		if l < 0 || l >= len(p.levels) {
			return fmt.Errorf("core: LevelCodecs names level %d, container has levels [0,%d)", l, len(p.levels))
		}
		if _, ok := codec.ByID(byte(c)); !ok {
			return fmt.Errorf("core: level %d: %w", l, codec.ErrUnknownID(byte(c)))
		}
	}
	return nil
}

// Compress is CompressTo into memory: the same bytes, as one blob.
func (p *Prepared) Compress() (*Compressed, error) {
	var buf bytes.Buffer
	res, err := p.CompressTo(&buf)
	if err != nil {
		return nil, err
	}
	// buf grew by doubling; callers keep Blob, so copy it out at its length.
	return &Compressed{Blob: bytes.Clone(buf.Bytes()), LevelBytes: res.LevelBytes}, nil
}

// indexOpts echoes the container options into their index wire form.
func indexOpts(o Options) index.Opts {
	return index.Opts{
		Compressor:  byte(o.Compressor),
		Arrangement: byte(o.Arrangement),
		Pad:         o.Pad,
		PadKind:     byte(o.PadKind),
		AdaptiveEB:  o.AdaptiveEB,
		SZ2Block:    o.SZ2BlockSize,
		Interp:      byte(o.Interp),
		EB:          o.EB,
		Alpha:       o.Alpha,
		Beta:        o.Beta,
	}
}

// OptionsFromIndex reconstructs decode options from an index's header echo
// (the inverse of the echo written by CompressTo).
func OptionsFromIndex(o index.Opts) Options {
	return Options{
		Compressor:   Compressor(o.Compressor),
		Arrangement:  Arrangement(o.Arrangement),
		Pad:          o.Pad,
		PadKind:      layout.PadKind(o.PadKind),
		AdaptiveEB:   o.AdaptiveEB,
		SZ2BlockSize: o.SZ2Block,
		Interp:       sz3.Interpolant(o.Interp),
		EB:           o.EB,
		Alpha:        o.Alpha,
		Beta:         o.Beta,
	}
}

// CompressHierarchy runs both stages.
func CompressHierarchy(h *grid.Hierarchy, opt Options) (*Compressed, error) {
	p, err := Prepare(h, opt)
	if err != nil {
		return nil, err
	}
	return p.Compress()
}

// PostBlockSize returns the block size whose boundaries the post-processor
// should smooth for opt.Compressor: the codec's own block for block-wise
// backends (SZ2/ZFP), the unit block size for the partitioned global case
// (§III-B: "the partition size for multi-resolution data is larger than
// the block sizes used by SZ/ZFP — 16 vs 4"), or 0 when the codec produces
// no block artifacts (lossless passthrough).
func PostBlockSize(opt Options, unitSize int) int {
	cd, ok := codec.ByID(byte(opt.Compressor))
	if !ok {
		return unitSize
	}
	return cd.PostBlockSize(opt.params(), unitSize)
}

// PostCandidates returns the paper's intensity candidate set for the
// backend (nil when post-processing never applies to it).
func PostCandidates(c Compressor) []float64 {
	if cd, ok := codec.ByID(byte(c)); ok {
		return cd.PostCandidates()
	}
	return postproc.SZ2Candidates()
}

// RoundTrip returns a single-field compress+decompress closure for the
// configured backend at the working error bound, used for sampling.
func (o Options) RoundTrip() postproc.RoundTrip {
	opt := (&o).withDefaults()
	return func(f *field.Field) (*field.Field, error) {
		data, err := compressField(nil, f, opt, opt.Compressor)
		if err != nil {
			return nil, err
		}
		return decompressFieldCtx(context.Background(), data, opt.Compressor, nil)
	}
}

// FindIntensities runs the paper's sample-and-model stage on the prepared
// buffers: for each level it compresses a ≤1.5% sample and selects the
// per-dimension post-processing intensity by stochastic descent over the
// backend's candidate set. Levels without data get zero intensity.
func (p *Prepared) FindIntensities() ([]postproc.Intensity, error) {
	out := make([]postproc.Intensity, len(p.levels))
	for li, pl := range p.levels {
		// Sample under the codec that will actually compress this level.
		lopt := p.opt
		lopt.Compressor = p.opt.codecFor(li)
		if cd, ok := codec.ByID(byte(lopt.Compressor)); ok && cd.Lossless() {
			continue // bit-exact level: nothing to repair
		}
		var sample *field.Field
		switch {
		case pl.merged != nil:
			sample = pl.merged
		case len(pl.boxFld) > 0:
			sample = slices.MaxFunc(pl.boxFld, func(a, b *field.Field) int { return cmp.Compare(a.Len(), b.Len()) })
		default:
			continue
		}
		u := p.blockB >> li
		bs := PostBlockSize(lopt, u)
		po := postproc.Options{EB: lopt.EB, BlockSize: bs, Candidates: PostCandidates(lopt.Compressor)}
		set, err := postproc.CollectSamples(sample, lopt.RoundTrip(), po)
		if err != nil {
			// A level too small to sample simply goes unprocessed.
			continue
		}
		out[li] = set.FindIntensity()
	}
	return out, nil
}

// parseContainer scans a container body serially into the index a footer
// would have carried. It is the scan for bodies with no usable footer
// (version 2 containers, a footer truncated away or damaged) and has one
// caller, BuildIndex. The header, block lists and box geometry are the
// records the footer repeats and decode through package index, with its
// checks; what belongs to the body alone is here: the magic and version
// byte, and the stream walk — each stream's length prefix, version 4's
// codec byte, and the checksum of the bytes the prefix covers.
func parseContainer(blob []byte) (*index.Index, error) {
	if len(blob) < 12 || string(blob[:4]) != containerMagic {
		return nil, errors.New("core: bad magic")
	}
	version := blob[4]
	if version < containerVersionV2 || version > containerVersionMixed {
		return nil, fmt.Errorf("core: unsupported version %d", version)
	}
	r := wire.NewReader(blob[5:])
	ix, err := index.ParseHeader(&r)
	if err != nil {
		return nil, err
	}
	ix.StreamCRCs = true

	// stream consumes one length-prefixed payload — in a version-4 container
	// its codec byte sits between the two; older versions compress every
	// stream with the header codec — and records its extent and checksum
	// under level lv. An empty merged level carries a zero length and no
	// stream.
	stream := func(lv *index.Level, st index.Stream) error {
		n := int(r.Uvarint(uint64(r.Len())))
		if n == 0 && st.Box < 0 {
			return r.Err()
		}
		st.Compressor = ix.Opts.Compressor
		if version >= containerVersionMixed {
			st.Compressor = r.Byte()
		}
		st.Offset = int64(len(blob) - r.Len())
		payload := r.Bytes(n)
		if err := r.Err(); err != nil {
			return fmt.Errorf("core: truncated container: %w", err)
		}
		st.Len, st.CRC = int64(n), crc32.ChecksumIEEE(payload)
		lv.Streams = append(lv.Streams, len(ix.Streams))
		ix.Streams = append(ix.Streams, st)
		return nil
	}

	// A box never holds fewer than one unit block, so the block total
	// bounds a level's box count.
	nBlocksTotal := (ix.Nx / ix.BlockB) * (ix.Ny / ix.BlockB) * (ix.Nz / ix.BlockB)
	for li := range ix.Levels {
		if err := ix.ParseBlocks(&r, li); err != nil {
			return nil, err
		}
		lv := &ix.Levels[li]
		u := ix.UnitBlockSize(li)
		if a := Arrangement(ix.Opts.Arrangement); a != ArrangeTAC {
			rawLen := a.RawLen(u, len(lv.Blocks), lv.Padded)
			if err := stream(lv, index.Stream{Level: li, Box: -1, RawLen: rawLen}); err != nil {
				return nil, err
			}
			continue
		}
		nBoxes := int(r.Uvarint(uint64(nBlocksTotal)))
		for bi := 0; bi < nBoxes; bi++ {
			g, err := ix.ParseBox(&r)
			if err != nil {
				return nil, err
			}
			rawLen := int64(g.WX*u) * int64(g.WY*u) * int64(g.WZ*u) * 8
			if err := stream(lv, index.Stream{Level: li, Box: bi, Geom: g, RawLen: rawLen}); err != nil {
				return nil, err
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: truncated container: %w", err)
	}
	return ix, nil
}

// BuildIndex indexes a full in-memory container by scanning its body — the
// fallback that gives footerless containers (version 2, or a footer lost or
// damaged) the same decode path as indexed ones at the cost of one
// sequential scan; stream payloads are located and checksummed, not decoded.
// The scanned index is re-validated through the footer parser, so it has
// passed every check a footer-read index passes, and carries the
// synthesized section's CRC, which plays the container-version role the
// trailer CRC does for footer-indexed containers.
func BuildIndex(blob []byte) (*index.Index, error) {
	scan, err := parseContainer(blob)
	if err != nil {
		return nil, err
	}
	section := scan.AppendFooter(nil)
	section = section[:len(section)-index.TrailerLen]
	ix, err := index.Parse(section, int64(len(blob)))
	if err != nil {
		return nil, err
	}
	ix.SectionCRC = crc32.ChecksumIEEE(section)
	return ix, nil
}

// Ratio returns the compression ratio relative to the hierarchy's raw
// multi-resolution payload.
func (c *Compressed) Ratio(h *grid.Hierarchy) float64 {
	return float64(h.PayloadBytes()) / float64(c.Size())
}
