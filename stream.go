package repro

// Streaming write path: CompressTo and CompressToFile emit the container to
// an io.Writer (or atomically to a file) stream by stream, in order, as the
// compression workers finish them, so ingesting a large field costs the
// input plus a bounded window of compressed streams (core.Prepared.CompressTo
// states the bound) — not the input plus the assembled blob, as the in-memory
// Result path does. The bytes written are identical to Result.Blob for the
// same options.

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/writer"
)

// WriteResult summarizes a streaming compression write. Unlike Result it
// carries no reconstruction or quality metrics: computing those requires
// decompressing, which would defeat the bounded-memory point of the
// streaming path (decode selectively later via OpenContainer instead).
type WriteResult struct {
	// Bytes is the total container size written, index footer included.
	Bytes int64
	// LevelBytes records the compressed payload per level.
	LevelBytes []int
	// CompressionRatio is raw multi-resolution payload bytes / Bytes.
	CompressionRatio float64
	// Timing breaks down the run (ROI, Preprocess, and Compress stages).
	Timing Timing
}

// CompressTo converts a uniform field to adaptive multi-resolution data via
// ROI extraction and streams the compressed container to w. Options that
// only affect decode-side processing (PostProcess, Uncertainty) are ignored
// here — they never change the container bytes. The levels are arranged
// straight from f, without building the hierarchy; the bytes are those
// CompressAMRTo writes for ConvertROI's hierarchy.
func CompressTo(f *Field, opt Options, w io.Writer) (*WriteResult, error) {
	var res WriteResult
	prep, _, err := opt.prepareUniform(f, &res.Timing)
	if err != nil {
		return nil, err
	}
	return res.write(prep, w)
}

// CompressAMRTo streams the compressed container for existing
// multi-resolution data to w.
func CompressAMRTo(h *Hierarchy, opt Options, w io.Writer) (*WriteResult, error) {
	var res WriteResult
	prep, _, err := opt.prepare(h, &res.Timing)
	if err != nil {
		return nil, err
	}
	return res.write(prep, w)
}

// write runs the compression stage of a prepared input into w.
func (res *WriteResult) write(prep *core.Prepared, w io.Writer) (*WriteResult, error) {
	t0 := time.Now()
	wr, err := prep.CompressTo(w)
	if err != nil {
		return nil, err
	}
	res.Timing.Compress = time.Since(t0)
	res.Bytes = wr.Bytes
	res.LevelBytes = wr.LevelBytes
	res.CompressionRatio = float64(prep.PayloadBytes()) / float64(wr.Bytes)
	return res, nil
}

// CompressToFile is CompressTo into path, written atomically: the container
// streams into a hidden temporary in the same directory and is renamed over
// path only when complete, so concurrent readers (e.g. a serving daemon)
// never observe a partial container.
func CompressToFile(f *Field, opt Options, path string) (*WriteResult, error) {
	var res *WriteResult
	err := writer.AtomicFile(path, 0o644, func(w io.Writer) error {
		var werr error
		res, werr = CompressTo(f, opt, w)
		return werr
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
