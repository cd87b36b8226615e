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
	"math"

	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/parallel"
)

// wireWriter wraps a destination with error-latching primitive writers and
// an offset counter (the index needs absolute stream offsets).
type wireWriter struct {
	w   io.Writer
	n   int64
	err error
	tmp [binary.MaxVarintLen64]byte
}

func (ww *wireWriter) write(b []byte) {
	if ww.err != nil {
		return
	}
	m, err := ww.w.Write(b)
	ww.n += int64(m)
	ww.err = err
}

func (ww *wireWriter) writeByte(b byte) {
	ww.tmp[0] = b
	ww.write(ww.tmp[:1])
}

func (ww *wireWriter) writeUvarint(v uint64) {
	n := binary.PutUvarint(ww.tmp[:], v)
	ww.write(ww.tmp[:n])
}

func (ww *wireWriter) writeVarint(v int64) {
	n := binary.PutVarint(ww.tmp[:], v)
	ww.write(ww.tmp[:n])
}

func (ww *wireWriter) writeFloat(v float64) {
	binary.LittleEndian.PutUint64(ww.tmp[:8], math.Float64bits(v))
	ww.write(ww.tmp[:8])
}

// writeContainer serializes the container body (header, per-level metadata,
// compressed streams) to ww, pulling each stream from nextStream — called
// once per stream, in serialization order, and not again after a write to ww
// has failed. It returns the populated index (ready for AppendFooter) and the
// per-level compressed payload byte counts.
func (p *Prepared) writeContainer(ww *wireWriter, nextStream func() ([]byte, error)) (*index.Index, []int, error) {
	o := p.opt
	ver := p.wireVersion()
	ww.write([]byte(containerMagic))
	ww.writeByte(ver)
	ww.writeByte(byte(o.Compressor))
	ww.writeByte(byte(o.Arrangement))
	ww.writeByte(boolByte(o.Pad))
	ww.writeByte(byte(o.PadKind))
	ww.writeByte(boolByte(o.AdaptiveEB))
	ww.writeUvarint(uint64(o.SZ2BlockSize)) // v2: uvarint (v1 wrote a truncating byte)
	ww.writeByte(byte(o.Interp))
	ww.writeFloat(o.EB)
	ww.writeFloat(o.Alpha)
	ww.writeFloat(o.Beta)
	ww.writeUvarint(uint64(p.nx))
	ww.writeUvarint(uint64(p.ny))
	ww.writeUvarint(uint64(p.nz))
	ww.writeUvarint(uint64(p.blockB))
	ww.writeUvarint(uint64(len(p.levels)))

	nbx := p.nx / p.blockB
	nby := p.ny / p.blockB
	levelBytes := make([]int, len(p.levels))
	ix := &index.Index{
		Opts:       indexOpts(o),
		Nx:         p.nx,
		Ny:         p.ny,
		Nz:         p.nz,
		BlockB:     p.blockB,
		StreamCRCs: true,
	}
	emitStream := func(li, box int, geom layout.Box, rawLen int) error {
		if ww.err != nil {
			return ww.err // the destination failed: compress nothing more
		}
		s, err := nextStream()
		if err != nil {
			return err
		}
		sc := o.codecFor(li)
		ww.writeUvarint(uint64(len(s)))
		if ver >= containerVersionMixed {
			// v4: each stream names its own codec on the wire, right after
			// its length — the sequential decoder's counterpart to the
			// per-stream compressor byte the index footer always carried.
			ww.writeByte(byte(sc))
		}
		ixl := &ix.Levels[li]
		ixl.Streams = append(ixl.Streams, len(ix.Streams))
		ix.Streams = append(ix.Streams, index.Stream{
			Level: li, Box: box, Geom: geom, Compressor: byte(sc),
			Offset: ww.n, Len: int64(len(s)), RawLen: int64(rawLen),
			CRC: crc32.ChecksumIEEE(s),
		})
		ww.write(s)
		levelBytes[li] += len(s)
		return nil
	}
	for li, pl := range p.levels {
		ix.Levels = append(ix.Levels, index.Level{Blocks: pl.blocks, Padded: pl.padded})
		// Block list as deltas of flat indices (raster order for linear /
		// stack; Morton order for zorder — order matters, so store as-is).
		ww.writeUvarint(uint64(len(pl.blocks)))
		prev := int64(0)
		for _, bc := range pl.blocks {
			flat := int64(bc[0] + nbx*(bc[1]+nby*bc[2]))
			ww.writeVarint(flat - prev)
			prev = flat
		}
		ww.writeByte(boolByte(pl.padded))
		if o.Arrangement == ArrangeTAC {
			ww.writeUvarint(uint64(len(pl.boxes)))
			for bi, b := range pl.boxes {
				for _, v := range []int{b.X0, b.Y0, b.Z0, b.WX, b.WY, b.WZ} {
					ww.writeUvarint(uint64(v))
				}
				if err := emitStream(li, bi, b, pl.boxFld[bi].Bytes()); err != nil {
					return nil, nil, err
				}
			}
			continue
		}
		if pl.merged == nil {
			ww.writeUvarint(0)
			continue
		}
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
// footer, never the whole container. A failed write to w ends the run at
// the next stream boundary.
func (p *Prepared) CompressTo(w io.Writer) (*WriteResult, error) {
	return p.compressTo(w, p.compressStream)
}

// compressTo is CompressTo with the per-stream compressor as a parameter.
func (p *Prepared) compressTo(w io.Writer, compress func(compressJob) ([]byte, error)) (*WriteResult, error) {
	if err := p.checkCompressOptions(); err != nil {
		return nil, err
	}
	jobs := p.jobs()
	streams := parallel.NewOrdered(len(jobs), p.opt.Workers, func(i int) ([]byte, error) {
		return compress(jobs[i])
	})
	defer streams.Stop()
	bw := bufio.NewWriterSize(w, 1<<16)
	ww := &wireWriter{w: bw}
	ix, levelBytes, err := p.writeContainer(ww, streams.Next)
	if err != nil {
		return nil, err
	}
	ww.write(ix.AppendFooter(bw.AvailableBuffer())) // built in bw's spare room
	if ww.err != nil {
		return nil, ww.err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return &WriteResult{Bytes: ww.n, LevelBytes: levelBytes}, nil
}
