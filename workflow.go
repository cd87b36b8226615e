// Package repro is a Go reproduction of "A High-Quality Workflow for
// Multi-Resolution Scientific Data Reduction and Visualization" (Wang et
// al., SC 2024). It exposes the complete workflow of the paper's Fig. 3:
//
//  1. ROI extraction: uniform data → multi-resolution "adaptive" data by
//     block range thresholding (§III), or direct ingestion of AMR data;
//  2. SZ3MR compression: per-level unit-block merging with padding and an
//     adaptive per-interpolation-level error bound for the SZ3 backend
//     (§III-A), plus SZ2/ZFP backends and the AMRIC/TAC/zMesh baseline
//     arrangements;
//  3. Error-bounded adaptive Bézier post-processing of block-wise
//     compression artifacts, with sampled intensity selection (§III-B);
//  4. Uncertainty visualization: probabilistic marching cubes driven by the
//     compression-error distribution estimated from the same samples
//     (§III-C).
//
// The heavy lifting lives in internal packages (internal/core implements the
// pipeline; internal/sz3, internal/sz2, internal/zfp are from-scratch
// stand-ins for the reference compressors); this package is the stable
// entry point used by the examples, commands, and benchmarks.
//
// # Concurrency
//
// The compression and decompression stages run multi-core by default,
// standing in for the paper's OpenMP parallelization: every backend stream
// (one per merged level for the linear/stack/zorder arrangements, one per
// box for TAC) is compressed or decoded by a bounded goroutine pool.
// Options.Workers caps the pool (0 = runtime.GOMAXPROCS(0), 1 or below =
// fully serial — the paper's "Serial" configurations). The worker count never
// changes the output: containers are byte-identical and reconstructions
// bit-identical for every Workers value, so parallelism is purely a
// throughput knob. Chunked slab parallelism for single uniform fields
// (which *does* trade compression ratio for speed, as §IV-C notes for
// OpenMP SZ2) lives separately in internal/parallelcomp; both are built on
// the worker helpers in internal/parallel.
//
// # Random access
//
// Containers written by this package (format version 3) end in a
// self-describing block index (internal/index) naming every backend
// stream's level, box, offset, and length. OpenContainer / OpenContainerURL
// return a ContainerReader that seeks directly to the streams a request
// needs and decodes only those:
//
//	r, err := repro.OpenContainerURL("field.mrw") // or file://, http(s)://
//	defer r.Close()
//	coarse, err := r.ReadLevel(r.NumLevels() - 1) // decodes one stream
//	plane, err := r.ReadSlice(repro.AxisZ, 16, 0) // one stream, or only
//	                                              // intersecting TAC boxes
//
// Reads are backed by a byte-budgeted LRU brick cache; pass a
// shared NewBrickCache to OpenContainerCached to bound decoded-brick
// memory across many open containers (the mrserve setup). Fields returned
// by Read* methods may be shared with that cache — treat them as
// read-only. Containers from older versions of this package (v1/v2, no
// index) remain readable everywhere: the reader falls back to one
// sequential scan, after which access is equally random. cmd/mrserve
// serves a directory of containers over HTTP on top of this API.
//
// # Streaming writes
//
// The write path has the mirror-image discipline: CompressTo streams the
// container to an io.Writer stream by stream, in container order, while the
// workers compress ahead of it (memory bounded by a window of compressed
// streams, not the container), and CompressToFile installs it by atomic
// rename so concurrent readers never observe a partial file. The bytes are
// identical to Result.Blob for the same options. cmd/mrserve's PUT ingest
// endpoint builds on these.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/postproc"
	"repro/internal/reader"
	"repro/internal/roi"
	"repro/internal/store"
	"repro/internal/uncertainty"
)

// Field is a dense 3D scalar field (x fastest, row-major float64).
type Field = field.Field

// Hierarchy is a multi-resolution dataset (levels of blocks, 0 = finest).
type Hierarchy = grid.Hierarchy

// Intensity is the per-dimension post-processing strength a.
type Intensity = postproc.Intensity

// ErrorModel is the per-voxel Gaussian compression-error model.
type ErrorModel = uncertainty.ErrorModel

// NewField allocates a zero field; see field.New.
func NewField(nx, ny, nz int) *Field { return field.New(nx, ny, nz) }

// Compressor names a compression backend. Any name in the codec table
// is valid (see Codecs for the current vocabulary); the
// constants below are the built-ins.
type Compressor string

// Built-in backends.
const (
	SZ3   Compressor = "sz3"   // global interpolation compressor (default)
	SZ2   Compressor = "sz2"   // block-wise Lorenzo/regression compressor
	ZFP   Compressor = "zfp"   // block-wise transform compressor
	Flate Compressor = "flate" // lossless raw+flate passthrough
)

// Arrangement names a unit-block layout for multi-resolution levels.
type Arrangement string

// Supported arrangements (Fig. 6 of the paper).
const (
	Linear   Arrangement = "linear"   // linear merge along z (SZ3MR, baseline)
	Stack    Arrangement = "stack"    // AMRIC-style cubic stacking
	TAC      Arrangement = "tac"      // TAC-style adjacency boxes
	ZOrder1D Arrangement = "zorder1d" // zMesh-style 1D Morton flattening
)

// Options configures the workflow. The zero value plus an error bound gives
// the paper's recommended configuration (SZ3MR with post-processing off).
type Options struct {
	// EB is the absolute error bound, finite and positive. Exactly one of
	// EB / RelEB must be set.
	EB float64
	// RelEB, if nonzero, sets EB = RelEB × the value range of the levels as
	// stored: the widest max − min over the hierarchy's levels, each taken
	// over the level's full-domain array — its owned samples and the zero
	// samples of the blocks it does not own (NaN samples are skipped). For
	// a uniform input the levels are the ROI levels (full-resolution ROI
	// blocks, 2×-downsampled rest), not the input itself. The bound must
	// come out finite and positive.
	RelEB float64
	// Compressor selects the backend (default SZ3).
	Compressor Compressor
	// Arrangement selects the layout (default Linear).
	Arrangement Arrangement
	// Pad enables the padding improvement (§III-A improvement 1); it is
	// applied only to linear merges with unit blocks > 4. Default on for
	// SZ3 unless DisablePad.
	DisablePad bool
	// DisableAdaptiveEB turns off the per-level error bound (improvement 2).
	DisableAdaptiveEB bool
	// Alpha/Beta parameterize the adaptive bound (defaults 2.25 / 8).
	Alpha, Beta float64
	// PostProcess enables the error-bounded Bézier post-processing stage.
	PostProcess bool
	// ROIBlockB is the ROI/AMR block size for uniform inputs (default 16).
	ROIBlockB int
	// ROITopFrac is the fraction of blocks kept at full resolution when
	// converting uniform data (default 0.5).
	ROITopFrac float64
	// Uncertainty enables the probabilistic-marching-cubes stage for the
	// isovalue IsoValue.
	Uncertainty bool
	// IsoValue is the isovalue analyzed when Uncertainty is set.
	IsoValue float64
	// Workers bounds the number of goroutines compressing or decoding
	// backend streams concurrently (0 = runtime.GOMAXPROCS(0), 1 or below =
	// serial).
	// The compressed container is byte-identical for every value.
	Workers int
	// LevelCodecs overrides the codec per resolution level (key = level,
	// 0 = finest); levels not named use Compressor. Typical use: coarse
	// levels lossless ("flate"), fine levels error-bounded — see
	// ParseLevelCodecs for the "level:codec" spec syntax CLI flags and
	// query parameters use.
	LevelCodecs map[int]Compressor
}

func (o Options) coreOptions(eb float64) (core.Options, error) {
	co := core.Options{EB: eb, Alpha: o.Alpha, Beta: o.Beta, Workers: o.Workers}
	c, err := lookupCodec(o.Compressor)
	if err != nil {
		return co, err
	}
	co.Compressor = core.Compressor(c.WireID())
	if c.PadAndAdaptiveEB() {
		co.Pad = !o.DisablePad
		co.AdaptiveEB = !o.DisableAdaptiveEB
	}
	for l, name := range o.LevelCodecs {
		lc, err := lookupCodec(name)
		if err != nil {
			return co, fmt.Errorf("level %d: %w", l, err)
		}
		if co.LevelCodecs == nil {
			co.LevelCodecs = make(map[int]core.Compressor, len(o.LevelCodecs))
		}
		co.LevelCodecs[l] = core.Compressor(lc.WireID())
	}
	switch o.Arrangement {
	case "", Linear:
		co.Arrangement = core.ArrangeLinear
	case Stack:
		co.Arrangement = core.ArrangeStack
	case TAC:
		co.Arrangement = core.ArrangeTAC
	case ZOrder1D:
		co.Arrangement = core.ArrangeZOrder1D
	default:
		return co, fmt.Errorf("repro: unknown arrangement %q", o.Arrangement)
	}
	return co, nil
}

// Result is the outcome of a workflow run.
type Result struct {
	// Blob is the self-describing compressed container.
	Blob []byte
	// Hierarchy is the decompressed multi-resolution data (post-processed
	// if requested).
	Hierarchy *Hierarchy
	// Recon is the flattened full-resolution reconstruction.
	Recon *Field
	// CompressionRatio is raw multi-resolution payload bytes / Blob bytes.
	CompressionRatio float64
	// PSNR and SSIM compare Recon against the input (uniform inputs) or the
	// flattened input hierarchy (AMR inputs).
	PSNR, SSIM float64
	// Intensities holds the selected per-level post-processing strengths.
	Intensities []Intensity
	// Model is the estimated compression-error model (when Uncertainty).
	Model ErrorModel
	// CrossProbabilities is the cell-centered isosurface-crossing
	// probability field (when Uncertainty).
	CrossProbabilities *Field
	// Timing breaks down the run.
	Timing Timing
}

// Timing records stage durations (the paper's Tables IV and IX).
type Timing struct {
	ROI         time.Duration // uniform → adaptive conversion
	Preprocess  time.Duration // collect/merge/pad into compression buffers
	SampleModel time.Duration // post-processing sampling + intensity fit
	Compress    time.Duration // backend compression + container encode
	Decompress  time.Duration // decode (includes post-processing if on)
}

// CompressUniform converts a uniform field to adaptive multi-resolution data
// via ROI extraction and runs the workflow on it. The two levels are
// arranged straight from f (prepareUniform); the container is the one
// CompressAMR writes for ConvertROI's hierarchy.
func CompressUniform(f *Field, opt Options) (*Result, error) {
	var res Result
	prep, eb, err := opt.prepareUniform(f, &res.Timing)
	if err != nil {
		return nil, err
	}
	return res.run(prep, eb, opt, func() *Field { return f })
}

// bound is the one place the EB/RelEB pair becomes the absolute bound.
// rng, called only under RelEB, returns the widest value range over the
// levels as stored (resolveEB's range). A bound that is not finite and
// positive — a NaN or infinite EB, or RelEB over a range an infinite sample
// made infinite — is rejected: no codec can honour it, and no reader could
// open what it would write.
func (o Options) bound(rng func() float64) (float64, error) {
	eb := o.EB
	if o.RelEB != 0 {
		if o.EB != 0 {
			return 0, errors.New("repro: set exactly one of EB and RelEB")
		}
		eb = o.RelEB * rng()
	}
	if !(eb > 0) || math.IsInf(eb, 1) {
		return 0, fmt.Errorf("repro: error bound %g must be finite and positive", eb)
	}
	return eb, nil
}

// widest folds level ranges the way resolveEB always has: the largest, with
// a NaN range (an infinite level's) skipped.
func widest(ranges ...float64) float64 {
	rng := 0.0
	for _, r := range ranges {
		if r > rng {
			rng = r
		}
	}
	return rng
}

// resolveEB turns the EB/RelEB pair into the absolute bound for h. Each
// level's range is taken over its dense array: the owned samples, and the
// zeros of the blocks it does not own.
func (o Options) resolveEB(h *Hierarchy) (float64, error) {
	return o.bound(func() float64 {
		ranges := make([]float64, len(h.Levels))
		for li, lv := range h.Levels {
			ranges[li] = lv.Data.ValueRange()
		}
		return widest(ranges...)
	})
}

// denseRange is ValueRange of a level's dense array given the extremes of
// its owned samples: a block the level does not own reads as zeros there.
func denseRange(lo, hi float64, unowned bool) float64 {
	if unowned {
		lo, hi = field.FoldRange(lo, hi, 0, 0)
	}
	lo, hi = field.FinishRange(lo, hi)
	return hi - lo
}

// CompressAMR runs the workflow on existing multi-resolution data.
func CompressAMR(h *Hierarchy, opt Options) (*Result, error) {
	var res Result
	prep, eb, err := opt.prepare(h, &res.Timing)
	if err != nil {
		return nil, err
	}
	return res.run(prep, eb, opt, h.Flatten)
}

// prepare is the step every hierarchy compress entry point shares: it
// builds the core options, resolves the error bound for h and runs the
// pre-processing stage, timed into t.Preprocess. It returns the bound it
// resolved.
func (o Options) prepare(h *Hierarchy, t *Timing) (*core.Prepared, float64, error) {
	co, err := o.coreOptions(0)
	if err != nil {
		return nil, 0, err
	}
	if co.EB, err = o.resolveEB(h); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	prep, err := core.Prepare(h, co)
	t.Preprocess = time.Since(t0)
	return prep, co.EB, err
}

// prepareUniform is prepare for a uniform field, without its hierarchy: the
// ROI selection scans each block's extremes in place (t.ROI), and the two
// levels are arranged from f through roi's layout sources (t.Preprocess),
// so each kept sample is copied once, into its codec buffer. The bound is
// the one resolveEB gives for ConvertROI's hierarchy: level 0's range comes
// from the selection's block extremes, level 1's from one scan of its
// arranged buffer (⅛ of the samples), and each level's dense zeros count
// when the other level owns any block.
func (o Options) prepareUniform(f *Field, t *Timing) (*core.Prepared, float64, error) {
	t0 := time.Now()
	sel, err := roi.Scan(f, roi.Options{BlockB: o.ROIBlockB, TopFrac: o.ROITopFrac})
	if err != nil {
		return nil, 0, err
	}
	t.ROI = time.Since(t0)
	co, err := o.coreOptions(0)
	if err != nil {
		return nil, 0, err
	}
	t0 = time.Now()
	prep, err := core.PrepareSources(f.Nx, f.Ny, f.Nz, sel.BlockB, sel.Sources(f), co)
	if err != nil {
		return nil, 0, err
	}
	eb, err := o.bound(func() float64 {
		lo0, hi0 := math.Inf(1), math.Inf(-1)
		kept := 0
		for i, m := range sel.Mask {
			if m {
				lo0, hi0 = field.FoldRange(lo0, hi0, sel.Lo[i], sel.Hi[i])
				kept++
			}
		}
		lo1, hi1 := prep.LevelExtremes(1)
		return widest(denseRange(lo0, hi0, kept < len(sel.Mask)), denseRange(lo1, hi1, kept > 0))
	})
	if err != nil {
		return nil, 0, err
	}
	if err := prep.SetEB(eb); err != nil {
		return nil, 0, err
	}
	t.Preprocess = time.Since(t0)
	return prep, eb, nil
}

// run is the workflow after pre-processing: each stage — compress, decode
// (post-processed when asked), flatten, quality, uncertainty — runs once.
// ref returns the field quality is measured against: the uniform input, or
// the flattened input hierarchy.
func (res *Result) run(prep *core.Prepared, eb float64, opt Options, ref func() *Field) (*Result, error) {
	var err error
	if opt.PostProcess {
		t0 := time.Now()
		res.Intensities, err = prep.FindIntensities()
		if err != nil {
			return nil, err
		}
		res.Timing.SampleModel = time.Since(t0)
	}

	t0 := time.Now()
	c, err := prep.Compress()
	if err != nil {
		return nil, err
	}
	res.Timing.Compress = time.Since(t0)
	res.Blob = c.Blob
	res.CompressionRatio = float64(prep.PayloadBytes()) / float64(c.Size())

	t0 = time.Now()
	if opt.PostProcess {
		res.Hierarchy, err = core.DecompressProcessedWorkers(c.Blob, res.Intensities, opt.Workers)
	} else {
		res.Hierarchy, err = core.DecompressWorkers(c.Blob, opt.Workers)
	}
	if err != nil {
		return nil, err
	}
	res.Timing.Decompress = time.Since(t0)

	res.Recon = res.Hierarchy.Flatten()
	rf := ref()
	res.PSNR = metrics.PSNR(rf, res.Recon)
	res.SSIM = metrics.SSIMCentral(rf, res.Recon)
	if opt.Uncertainty {
		if err := res.analyzeUncertainty(eb, opt.IsoValue); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// analyzeUncertainty models the compression error from eb, the bound the
// container was compressed at, and computes cell-crossing probabilities of
// isovalue on the flattened reconstruction.
func (r *Result) analyzeUncertainty(eb, isovalue float64) error {
	// Error std-dev heuristic when no sample set is available: a normal fit
	// to a uniform error over ±eb (σ = eb/√3) bounds the truth; refined
	// models come from postproc samples via the uncertainty package.
	r.Model = ErrorModel{StdDev: eb / 1.732}
	p, err := uncertainty.CrossProbabilities(r.Recon, isovalue, r.Model)
	if err != nil {
		return err
	}
	r.CrossProbabilities = p
	return nil
}

// ContainerReader provides random access into a compressed container:
// ReadLevel, ReadBox, and ReadSlice decode only the streams they need. See
// the package doc's "Random access" section.
type ContainerReader = reader.Reader

// BrickCache is the byte-budgeted LRU holding decoded bricks; it also loads
// each brick once when concurrent readers miss on it together.
type BrickCache = cache.Cache

// SliceAxis names the axis of a ReadSlice cross-section.
type SliceAxis = reader.Axis

// Slice axes.
const (
	AxisX = reader.AxisX
	AxisY = reader.AxisY
	AxisZ = reader.AxisZ
)

// NewBrickCache creates a brick cache bounded by budgetBytes (<= 0
// disables caching), to be shared across OpenContainerCached calls.
func NewBrickCache(budgetBytes int64) *BrickCache {
	return cache.New(budgetBytes)
}

// OpenContainer opens a compressed container for random access. Indexed
// (v3) containers cost one footer read; older containers cost one
// sequential scan, after which access is equally random.
func OpenContainer(src io.ReaderAt, size int64) (*ContainerReader, error) {
	return reader.Open(src, size)
}

// OpenContainerCached is OpenContainer with a shared brick cache; key
// distinguishes this container's bricks within it.
func OpenContainerCached(src io.ReaderAt, size int64, c *BrickCache, key string) (*ContainerReader, error) {
	return reader.Open(src, size, reader.WithCache(c), reader.WithCacheKey(key))
}

// OpenContainerURL opens a container named by a local path, a file:// URL
// or an http(s):// URL for random access; Close releases it. A remote
// object is read with range requests — one suffix-range GET fetches the
// index footer, and each stream read is a ranged GET, so a coarse level of
// a large remote container costs kilobytes of transfer, not the file.
func OpenContainerURL(rawurl string) (*ContainerReader, error) {
	return openURL(context.Background(), rawurl)
}

// openURL resolves rawurl to a store and key and opens the object there.
func openURL(ctx context.Context, rawurl string) (*ContainerReader, error) {
	st, key, err := store.OpenObjectURL(rawurl)
	if err != nil {
		return nil, err
	}
	return reader.OpenStore(ctx, st, key)
}

// VerifyResult is the damage report of a container scrub: how many streams
// were checked (against footer checksums) or decoded (pre-checksum
// footers), and which failed.
type VerifyResult = reader.VerifyResult

// Verify scrubs an open container: every stream's payload is read and
// checked against its per-stream footer checksum, or fully decoded when the
// footer predates checksums. Per-stream failures land in the result's
// Faults, not the error — run it periodically against shared storage to
// find bit rot before a request does (cmd/mrcompress -verify is the CLI).
func Verify(ctx context.Context, r *ContainerReader) (*VerifyResult, error) {
	return r.Verify(ctx)
}

// VerifyFile opens the container path names — a local path, a file:// URL
// or an http(s):// URL, as OpenContainerURL takes — and scrubs it; see
// Verify.
func VerifyFile(ctx context.Context, path string) (*VerifyResult, error) {
	r, err := openURL(ctx, path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Verify(ctx)
}

// Decompress reconstructs the hierarchy from a compressed container.
func Decompress(blob []byte) (*Hierarchy, error) { return core.Decompress(blob) }

// DecompressWorkers is Decompress with an explicit bound on concurrent
// stream decoders (0 = runtime.GOMAXPROCS(0), 1 or below = serial).
func DecompressWorkers(blob []byte, workers int) (*Hierarchy, error) {
	return core.DecompressWorkers(blob, workers)
}

// ConvertROI exposes the uniform→adaptive conversion alone.
func ConvertROI(f *Field, blockB int, topFrac float64) (*Hierarchy, error) {
	return roi.Convert(f, roi.Options{BlockB: blockB, TopFrac: topFrac})
}

// PSNR, SSIM, and CompressionRatio re-export the evaluation metrics.
func PSNR(a, b *Field) float64 { return metrics.PSNR(a, b) }

// SSIM computes the mean SSIM over all z slices.
func SSIM(a, b *Field) float64 { return metrics.SSIM3D(a, b) }

// CompressionRatio is originalBytes/compressedBytes.
func CompressionRatio(originalBytes, compressedBytes int) float64 {
	return metrics.CompressionRatio(originalBytes, compressedBytes)
}
