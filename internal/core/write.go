package core

// Container serialization. CompressTo is the one writer: writeContainer lays
// the body out on the wire, pulling each compressed stream in order from a
// parallel.Ordered window of workers, and Compress is CompressTo into
// memory, so no two write paths can diverge byte-wise.

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"

	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/parallel"
)

// wireWriter wraps the buffered destination with an error latch and an
// offset counter (the index needs absolute stream offsets). Records are
// appended straight into the buffer's spare room (spare) and then written.
type wireWriter struct {
	w   *bufio.Writer
	n   int64
	err error
}

func (ww *wireWriter) write(b []byte) {
	if ww.err != nil {
		return
	}
	m, err := ww.w.Write(b)
	ww.n += int64(m)
	ww.err = err
}

// spare returns the destination buffer's unused room, empty, to append the
// next record into; a record that does not fit still writes correctly.
func (ww *wireWriter) spare() []byte { return ww.w.AvailableBuffer() }

// writeContainer serializes the container body (header, per-level metadata,
// compressed streams) to ww, pulling each stream from nextStream — called
// once per stream, in serialization order, and not again after a write to ww
// has failed — and handing it to written, emptied, once ww holds its bytes.
// The header, block lists and box geometry are the records the index footer
// repeats, encoded by the same index functions. It returns the populated
// index (ready for AppendFooter) and the per-level compressed payload byte
// counts.
func (p *Prepared) writeContainer(ww *wireWriter, nextStream func() ([]byte, error), written func([]byte)) (*index.Index, []int, error) {
	o := p.opt
	ver := p.wireVersion()
	ix := &index.Index{
		Opts:       indexOpts(o),
		Nx:         p.nx,
		Ny:         p.ny,
		Nz:         p.nz,
		BlockB:     p.blockB,
		Levels:     make([]index.Level, len(p.levels)),
		Streams:    make([]index.Stream, 0, p.streams()),
		StreamCRCs: true,
	}
	for li := range p.levels {
		pl := &p.levels[li]
		// Blocks in merge order: raster for linear / stack, Morton for
		// zorder — order matters, so the list is stored as-is.
		ix.Levels[li] = index.Level{Blocks: pl.blocks, Padded: pl.padded, Streams: make([]int, 0, pl.streams())}
	}
	ww.write(ix.AppendHeader(append(append(ww.spare(), containerMagic...), ver)))

	levelBytes := make([]int, len(p.levels))
	emitStream := func(li, box int, geom layout.Box, rawLen int) error {
		if ww.err != nil {
			return ww.err // the destination failed: compress nothing more
		}
		s, err := nextStream()
		if err != nil {
			return err
		}
		sc := o.codecFor(li)
		prefix := binary.AppendUvarint(ww.spare(), uint64(len(s)))
		if ver >= containerVersionMixed {
			// v4: each stream names its own codec on the wire, right after
			// its length — the sequential decoder's counterpart to the
			// per-stream compressor byte the index footer always carried.
			prefix = append(prefix, byte(sc))
		}
		ww.write(prefix)
		ixl := &ix.Levels[li]
		ixl.Streams = append(ixl.Streams, len(ix.Streams))
		ix.Streams = append(ix.Streams, index.Stream{
			Level: li, Box: box, Geom: geom, Compressor: byte(sc),
			Offset: ww.n, Len: int64(len(s)), RawLen: int64(rawLen),
			CRC: crc32.ChecksumIEEE(s),
		})
		ww.write(s)
		written(s[:0])
		levelBytes[li] += len(s)
		return nil
	}
	for li, pl := range p.levels {
		rec := ix.AppendBlocks(ww.spare(), li)
		if o.Arrangement == ArrangeTAC {
			ww.write(binary.AppendUvarint(rec, uint64(len(pl.boxes))))
			for bi, b := range pl.boxes {
				ww.write(index.AppendBox(ww.spare(), b))
				if err := emitStream(li, bi, b, pl.boxFld[bi].Bytes()); err != nil {
					return nil, nil, err
				}
			}
			continue
		}
		if pl.merged == nil {
			ww.write(binary.AppendUvarint(rec, 0)) // an empty level: no stream
			continue
		}
		ww.write(rec)
		if err := emitStream(li, -1, layout.Box{}, pl.merged.Bytes()); err != nil {
			return nil, nil, err
		}
	}
	if ww.err != nil {
		return nil, nil, ww.err
	}
	return ix, levelBytes, nil
}

// WriteResult summarizes a streaming container write.
type WriteResult struct {
	// Bytes is the total container size written, index footer included.
	Bytes int64
	// LevelBytes records the compressed payload per level (diagnostics).
	LevelBytes []int
}

// CompressTo runs the compression stage and streams the container to w:
// Workers goroutines compress streams ahead of the writer, which emits the
// header and each stream in container order as it becomes ready and appends
// the block-index footer, built alongside, at the end. The bytes are the
// same for every worker count. Beyond the prepared buffers it holds at most
// the parallel.Ordered window of compressed streams (8 per worker) plus the
// footer, never the whole container; a stream's buffer, once written,
// carries a later stream. A failed write to w ends the run at the next
// stream boundary.
func (p *Prepared) CompressTo(w io.Writer) (*WriteResult, error) {
	return p.compressTo(w, p.compressStream)
}

// compressTo is CompressTo with the per-stream compressor as a parameter,
// which appends job's stream to dst.
func (p *Prepared) compressTo(w io.Writer, compress func(job compressJob, dst []byte) ([]byte, error)) (*WriteResult, error) {
	if err := p.checkCompressOptions(); err != nil {
		return nil, err
	}
	jobs := p.jobs()
	var bufs spares[[]byte]
	streams := parallel.NewOrdered(len(jobs), p.opt.Workers, func(i int) ([]byte, error) {
		return compress(jobs[i], bufs.get())
	})
	defer streams.Stop()
	bw := bufio.NewWriterSize(w, 1<<16)
	ww := &wireWriter{w: bw}
	ix, levelBytes, err := p.writeContainer(ww, streams.Next, bufs.put)
	if err != nil {
		return nil, err
	}
	ww.write(ix.AppendFooter(ww.spare()))
	if ww.err != nil {
		return nil, ww.err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return &WriteResult{Bytes: ww.n, LevelBytes: levelBytes}, nil
}
