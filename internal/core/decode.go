package core

// The one container decoder. Every decode in the repository — Decompress,
// the random-access reader, the scrub — acts on a container index and on
// nothing else: loadIndex obtains it (the CRC-covered footer, or a validated
// body scan when there is none), DecodeIndexed turns one indexed stream's
// payload into a checked field, and PlaceIndexed puts that field where the
// index says it lives. Callers keep only what is theirs: Decompress its
// workers and the hierarchy's ownership flags, the reader its positioned
// reads, retries, cache and counters.

import (
	"context"
	"fmt"
	"hash/crc32"

	"repro/internal/faultio"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/parallel"
	"repro/internal/postproc"
)

// Decompress reconstructs the multi-resolution hierarchy from a container,
// decoding backend streams with the default worker count (DecompressWorkers).
func Decompress(blob []byte) (*grid.Hierarchy, error) {
	return decompressImpl(context.TODO(), blob, nil, 0)
}

// DecompressWorkers is Decompress on at most workers stream decoders (0 =
// runtime.GOMAXPROCS(0), 1 or below = serial, as Options.Workers), with at
// most one decoded stream per worker alive beyond the hierarchy.
func DecompressWorkers(blob []byte, workers int) (*grid.Hierarchy, error) {
	return decompressImpl(context.TODO(), blob, nil, workers)
}

// DecompressProcessedWorkers decompresses with an explicit bound on
// concurrent stream decoders and applies error-bounded post-processing with
// the given per-level intensities to each level's decoded array before
// reassembly; each worker holds one decoded stream and its processed copy.
func DecompressProcessedWorkers(blob []byte, intens []postproc.Intensity, workers int) (*grid.Hierarchy, error) {
	return decompressImpl(context.TODO(), blob, intens, workers)
}

// loadIndex returns the index of an in-memory container: the footer when it
// is present and intact (its trailer CRC holds and it parses), in which case
// the un-checksummed body header is never consulted; otherwise the validated
// body scan. (The footer path leaves SectionCRC unset: nothing decoding an
// in-memory blob names a container version.)
func loadIndex(blob []byte) (*index.Index, error) {
	if body, ok := index.Locate(blob); ok {
		if ix, err := index.Parse(blob[body:len(blob)-index.TrailerLen], int64(len(blob))); err == nil {
			return ix, nil
		}
	}
	return BuildIndex(blob)
}

// VerifyIndexed checks stream si's compressed payload against the checksum
// the index carries for it. An index without stream checksums (a version-1
// footer) has nothing to check and passes. A mismatch is a Corrupt error.
func VerifyIndexed(ix *index.Index, si int, payload []byte) error {
	if !ix.StreamCRCs {
		return nil
	}
	s := &ix.Streams[si]
	if got := crc32.ChecksumIEEE(payload); got != s.CRC {
		return faultio.Corrupt(streamErr(s.Level, s.Box,
			fmt.Errorf("payload CRC %08x, index says %08x", got, s.CRC)))
	}
	return nil
}

// DecodeIndexed decodes stream si of ix from its compressed payload — the
// only decode site in the repository. The payload must match the index's
// checksum, when the index carries one, before any codec sees it; the
// stream then decodes under its own codec (in a mixed-codec container each
// level may name a different one), and the result must have the byte size
// — and, for a TAC box, the shape — the index declares. Every failure, a codec panic on
// damaged input included, is a Corrupt error naming the stream. When ctx
// carries a trace the codec run appears on it as a "decode" span; a
// successful call formats no strings. The field is decoded into dst,
// reshaped (field.Reuse), when dst is not nil, else into a new one.
func DecodeIndexed(ctx context.Context, ix *index.Index, si int, payload []byte, dst *field.Field) (*field.Field, error) {
	if err := VerifyIndexed(ix, si, payload); err != nil {
		return nil, err
	}
	s := &ix.Streams[si]
	f, err := decompressFieldCtx(ctx, payload, Compressor(s.Compressor), dst)
	if err != nil {
		return nil, faultio.Corrupt(streamErr(s.Level, s.Box, err))
	}
	if int64(f.Bytes()) != s.RawLen {
		return nil, faultio.Corrupt(streamErr(s.Level, s.Box,
			fmt.Errorf("decoded to %d bytes, index says %d", f.Bytes(), s.RawLen)))
	}
	if Arrangement(ix.Opts.Arrangement) == ArrangeTAC {
		u, g := ix.UnitBlockSize(s.Level), s.Geom
		if f.Nx != g.WX*u || f.Ny != g.WY*u || f.Nz != g.WZ*u {
			return nil, faultio.Corrupt(streamErr(s.Level, s.Box,
				fmt.Errorf("decoded shape %v does not match box %+v", f, g)))
		}
	}
	return f, nil
}

// PlaceIndexed writes f, stream si as DecodeIndexed returned it, into dst, a
// full-domain array at the stream's level resolution — the only place a
// decoded stream is placed: a TAC box lands at its geometry, a merged level's
// unit blocks at the positions its block list names (layout.Place; a padded
// merge is placed as decoded, stepping over the pad layers).
func PlaceIndexed(ix *index.Index, si int, f, dst *field.Field) error {
	s := &ix.Streams[si]
	lv := &ix.Levels[s.Level]
	u := ix.UnitBlockSize(s.Level)
	a := Arrangement(ix.Opts.Arrangement)
	if a == ArrangeTAC {
		dst.SetBlock(s.Geom.X0*u, s.Geom.Y0*u, s.Geom.Z0*u, f)
		return nil
	}
	return layout.Place(a, &layout.Merged{Data: f, U: u, Blocks: lv.Blocks, Padded: lv.Padded}, dst)
}

// markOwned flags the unit blocks stream si carries as owned by its level of
// h: the box's blocks for a TAC stream, the level's merge list otherwise.
func markOwned(h *grid.Hierarchy, ix *index.Index, si int) {
	s := &ix.Streams[si]
	owned := h.Levels[s.Level].Owned
	if Arrangement(ix.Opts.Arrangement) != ArrangeTAC {
		for _, bc := range ix.Levels[s.Level].Blocks {
			owned[h.BlockIndex(bc[0], bc[1], bc[2])] = true
		}
		return
	}
	g := s.Geom
	for bz := g.Z0; bz < g.Z0+g.WZ; bz++ {
		for by := g.Y0; by < g.Y0+g.WY; by++ {
			for bx := g.X0; bx < g.X0+g.WX; bx++ {
				owned[h.BlockIndex(bx, by, bz)] = true
			}
		}
	}
}

// decompressImpl decodes every stream of the container in blob and
// reassembles the hierarchy. A non-zero intens[level] post-processes that
// level's streams before placement.
func decompressImpl(ctx context.Context, blob []byte, intens []postproc.Intensity, workers int) (*grid.Hierarchy, error) {
	ix, err := loadIndex(blob)
	if err != nil {
		return nil, err
	}
	h, err := grid.New(ix.Nx, ix.Ny, ix.Nz, ix.BlockB, len(ix.Levels))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	opt := OptionsFromIndex(ix.Opts)

	// The worker that decodes a stream places it, flags it owned and hands
	// its field to a later stream: index.Parse admits only streams that
	// claim each unit block once, so no two workers write one sample or
	// flag. With more streams than workers a field is made at the largest
	// stream's size (index.Parse holds each RawLen to its record).
	workers = parallel.Resolve(workers)
	dsts := spares[*field.Field]{free: make([]*field.Field, 0, min(workers, len(ix.Streams)))}
	maxLen := 0
	for _, s := range ix.Streams {
		maxLen = max(maxLen, int(s.RawLen/8))
	}
	_, err = parallel.MapErrWorkers(len(ix.Streams), workers, func(si int) (struct{}, error) {
		s := &ix.Streams[si]
		f := dsts.get()
		if f == nil && len(ix.Streams) > workers {
			f = &field.Field{Data: make([]float64, maxLen)}
		}
		f, err := DecodeIndexed(ctx, ix, si, blob[s.Offset:s.Offset+s.Len], f)
		if err != nil {
			return struct{}{}, err
		}
		err = PlaceIndexed(ix, si, postProcess(ix, si, opt, intens, f), h.Levels[s.Level].Data)
		if err == nil {
			markOwned(h, ix, si)
			dsts.put(f)
		}
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// postProcess returns stream si's decoded field f post-processed at its
// level's intensity, or f when that is zero. Each stream is processed under
// its own codec, so mixed-codec containers smooth each level as the backend
// that produced it needs; a codec without block artifacts (the lossless
// passthrough) reports block size 0 and is left alone.
func postProcess(ix *index.Index, si int, opt Options, intens []postproc.Intensity, f *field.Field) *field.Field {
	s := &ix.Streams[si]
	if s.Level >= len(intens) || intens[s.Level] == (postproc.Intensity{}) {
		return f
	}
	opt.Compressor = Compressor(s.Compressor)
	bs := PostBlockSize(opt, ix.UnitBlockSize(s.Level))
	if bs <= 0 {
		return f
	}
	po := postproc.Options{EB: opt.EB, BlockSize: bs}
	if !ix.Levels[s.Level].Padded {
		return postproc.Process(f, intens[s.Level], po)
	}
	// A padded merge is processed without its pad layers; the result goes
	// back under them so placement sees one shape.
	g := postproc.Process(layout.UnpadXY(f), intens[s.Level], po)
	field.CopyBlock(f, 0, 0, 0, g, 0, 0, 0, g.Nx, g.Ny, g.Nz)
	return f
}
