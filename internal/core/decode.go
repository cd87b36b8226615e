package core

// The one container decoder. Every decode in the repository — Decompress,
// the random-access reader, the scrub — acts on a container index and on
// nothing else: loadIndex obtains it (the CRC-covered footer, or a validated
// body scan when there is none), DecodeIndexed turns one indexed stream's
// payload into a checked field, and PlaceIndexed puts that field where the
// index says it lives. Callers keep only what is theirs: Decompress its
// worker window and the hierarchy's ownership flags, the reader its
// positioned reads, retries, cache and counters.

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
// decoding backend streams with the default worker count.
func Decompress(blob []byte) (*grid.Hierarchy, error) {
	return decompressImpl(blob, nil, 0)
}

// DecompressWorkers is Decompress with an explicit bound on concurrent
// stream decoders, normalized as Options.Workers is (0 =
// runtime.GOMAXPROCS(0), 1 or below = serial).
func DecompressWorkers(blob []byte, workers int) (*grid.Hierarchy, error) {
	return decompressImpl(blob, nil, workers)
}

// DecompressProcessedWorkers decompresses with an explicit bound on
// concurrent stream decoders and applies error-bounded post-processing with
// the given per-level intensities to each level's decoded array before
// reassembly.
func DecompressProcessedWorkers(blob []byte, intens []postproc.Intensity, workers int) (*grid.Hierarchy, error) {
	return decompressImpl(blob, intens, workers)
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
func decompressImpl(blob []byte, intens []postproc.Intensity, workers int) (*grid.Hierarchy, error) {
	ix, err := loadIndex(blob)
	if err != nil {
		return nil, err
	}
	h, err := grid.New(ix.Nx, ix.Ny, ix.Nz, ix.BlockB, len(ix.Levels))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	opt := OptionsFromIndex(ix.Opts)
	ctx := context.TODO() // Decompress takes no context (ROADMAP 4b)

	// Streams decode (and post-process) on the same ordered worker window
	// as the write side and are placed into the hierarchy in index order as
	// they arrive, so beyond the destination hierarchy at most the window's
	// decoded fields are alive at once (workers = 1 is fully streaming).
	// Placement stays on this goroutine: it writes into the shared
	// hierarchy, and its cost is dwarfed by backend decoding. A placed
	// field's array is copied out, so a later stream decodes into it.
	var dsts spares[*field.Field]
	fields := parallel.NewOrdered(len(ix.Streams), parallel.Resolve(workers), func(si int) (*field.Field, error) {
		s := &ix.Streams[si]
		f, err := DecodeIndexed(ctx, ix, si, blob[s.Offset:s.Offset+s.Len], dsts.get())
		if err != nil || s.Level >= len(intens) || intens[s.Level] == (postproc.Intensity{}) {
			return f, err
		}
		// Each stream is post-processed under its own codec, so mixed-codec
		// containers smooth each level as the backend that produced it
		// needs; a codec without block artifacts (the lossless passthrough)
		// reports block size 0 and is left alone.
		sopt := opt
		sopt.Compressor = Compressor(s.Compressor)
		bs := PostBlockSize(sopt, ix.UnitBlockSize(s.Level))
		if bs <= 0 {
			return f, nil
		}
		po := postproc.Options{EB: opt.EB, BlockSize: bs}
		if !ix.Levels[s.Level].Padded {
			return postproc.Process(f, intens[s.Level], po), nil
		}
		// A padded merge is processed without its pad layers; the result
		// goes back under them so placement sees one shape.
		g := postproc.Process(layout.UnpadXY(f), intens[s.Level], po)
		field.CopyBlock(f, 0, 0, 0, g, 0, 0, 0, g.Nx, g.Ny, g.Nz)
		return f, nil
	})
	defer fields.Stop()
	for si := range ix.Streams {
		f, err := fields.Next()
		if err != nil {
			return nil, err
		}
		if err := PlaceIndexed(ix, si, f, h.Levels[ix.Streams[si].Level].Data); err != nil {
			return nil, err
		}
		markOwned(h, ix, si)
		dsts.put(f)
	}
	return h, nil
}
