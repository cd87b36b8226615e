// Package index defines the self-describing block index appended as a
// footer to version-3 workflow containers. The index names every backend
// stream in the container — its level, TAC box id and geometry, backend
// compressor, absolute byte offset, compressed length, and decoded (raw)
// length — plus an echo of the container header and each level's block list,
// so a consumer holding only the footer can seek directly to any stream and
// reconstruct any level without scanning the body.
//
// The footer is strictly additive: the container body preceding it is
// byte-identical to a version-2 body and still describes itself. A container
// whose footer is lost or corrupt therefore degrades to one sequential scan
// of the body instead of becoming unreadable (core.BuildIndex, the fallback
// of every decoder); while the footer is intact, decoders act on it alone.
//
// # Shared records
//
// Three records appear both in the container body and in the index section,
// byte for byte the same, and this package holds the one encoder and the one
// decoder of each; the body writer and the body scan in package core call
// them too:
//
//	header   AppendHeader / ParseHeader
//	  u8 ×5   compressor, arrangement, pad, padKind, adaptiveEB
//	  uvarint SZ2 block size (one byte in a version-1 container body)
//	  u8      interpolant
//	  f64 ×3  EB, Alpha, Beta (little endian)
//	  uvarint nx, ny, nz, blockB, nLevels
//	blocks   AppendBlocks / ParseBlocks (one per level)
//	  uvarint block count, then varint deltas of flat block indices
//	  u8      padded flag
//	box      AppendBox / ParseBox (one per TAC box)
//	  uvarint ×6  X0 Y0 Z0 WX WY WZ, in unit blocks
//
// # Wire format
//
// The index section is written immediately after the last stream:
//
//	"MRIX"                      leading magic (sanity check)
//	u8      index format version (1 = original, 2 = per-stream CRCs)
//	header
//	per level:
//	  blocks
//	  uvarint stream count
//	  per stream:
//	    varint      box id (-1 for a merged-level stream)
//	    box         (only when box id >= 0)
//	    u8          compressor
//	    uvarint     absolute offset of the compressed stream
//	    uvarint     compressed length
//	    uvarint     raw (decoded) length in bytes
//	    u32le       CRC-32 (IEEE) of the compressed stream bytes
//	                (footer version 2 only)
//
// followed by a fixed 16-byte trailer that terminates the container:
//
//	u32le  CRC-32 (IEEE) of the index section
//	u64le  index section length in bytes
//	"MRIX" trailing magic
package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/layout"
	"repro/internal/wire"
)

// Magic brackets the index section: it opens the section and closes the
// 16-byte trailer at the very end of the container.
const Magic = "MRIX"

// TrailerLen is the size of the fixed trailer terminating an indexed
// container: CRC-32 + section length + closing magic.
const TrailerLen = 4 + 8 + 4

// Index footer wire-format versions. Version 2 appends a CRC-32 of each
// compressed stream's bytes to its index entry, so every random-access read
// can verify payload integrity before decoding; stream bodies are
// byte-identical across versions, and version-1 footers stay readable with
// verification reported unavailable (Index.StreamCRCs false).
const (
	// footerVersionV1 is the original footer: no per-stream checksums.
	footerVersionV1 = 1
	// footerVersionStreamCRC adds a u32le CRC-32 (IEEE) per stream entry.
	footerVersionStreamCRC = 2
)

// Sanity bounds for the header echo; generous for any real dataset but
// tight enough that a corrupt uvarint cannot drive huge allocations.
const (
	maxDim       = 1 << 24 // per-axis domain size
	maxBlockB    = 1 << 24
	maxLevels    = 64
	maxSZ2Block  = 1 << 30 // matches core's maxSZ2BlockSize
	maxStreamLen = 1 << 56
)

// ErrNoIndex reports that the container carries no index footer (a v2
// container, or a v3 container whose footer was truncated away).
var ErrNoIndex = errors.New("index: container has no index footer")

// Opts echoes the container header fields the reader needs to decode
// streams, as raw wire values (package core converts them to its Options).
type Opts struct {
	Compressor  byte
	Arrangement byte
	Pad         bool
	PadKind     byte
	AdaptiveEB  bool
	SZ2Block    int
	Interp      byte
	EB          float64
	Alpha       float64
	Beta        float64
}

// Stream locates one compressed backend stream inside the container.
type Stream struct {
	// Level is the resolution level the stream belongs to (0 = finest).
	Level int
	// Box is the TAC box id within the level, or -1 for a merged-level
	// stream.
	Box int
	// Geom is the box geometry in block coordinates (TAC streams only).
	Geom layout.Box
	// Compressor is the backend that produced the stream.
	Compressor byte
	// Offset is the absolute byte offset of the stream in the container.
	Offset int64
	// Len is the compressed length in bytes.
	Len int64
	// RawLen is the decoded payload size in bytes (before unpadding).
	RawLen int64
	// CRC is the CRC-32 (IEEE) of the compressed stream bytes. Meaningful
	// only when the index carries checksums (Index.StreamCRCs).
	CRC uint32
}

// Level is one level's reconstruction metadata.
type Level struct {
	// Blocks lists the level's unit blocks in merge order.
	Blocks [][3]int
	// Padded records whether the merged stream carries pad layers.
	Padded bool
	// Streams indexes into Index.Streams, in this level's stream order.
	Streams []int
}

// Index is the parsed (or to-be-written) container index.
type Index struct {
	Opts               Opts
	Nx, Ny, Nz, BlockB int
	Levels             []Level
	Streams            []Stream
	// StreamCRCs reports whether every Stream carries a payload CRC
	// (footer version 2). Writers set it to emit the checked footer;
	// readers use it to decide whether integrity verification is available.
	StreamCRCs bool
	// SectionCRC is the CRC-32 of the serialized index section, as recorded
	// in the container trailer — a cheap strong identifier for the whole
	// container version (the section covers every stream's offset, length,
	// and payload CRC). ReadFrom fills it from the trailer; for an index
	// built by a sequential scan it is computed over the synthesized
	// section. Zero only on an Index never serialized or parsed.
	SectionCRC uint32
}

// NumLevels returns the level count.
func (ix *Index) NumLevels() int { return len(ix.Levels) }

// LevelDims returns the full-domain dimensions of a level's data array.
func (ix *Index) LevelDims(level int) (nx, ny, nz int) {
	s := 1 << level
	return ix.Nx / s, ix.Ny / s, ix.Nz / s
}

// UnitBlockSize returns the unit block edge at a level, in that level's own
// cells.
func (ix *Index) UnitBlockSize(level int) int { return ix.BlockB >> level }

// CompressedBytes sums the compressed stream lengths of one level.
func (ix *Index) CompressedBytes(level int) int64 {
	var n int64
	for _, si := range ix.Levels[level].Streams {
		n += ix.Streams[si].Len
	}
	return n
}

// blockGrid returns the domain's extent in unit blocks along each axis —
// the same at every level, since a level halves both its cells and its unit
// block edge.
func (ix *Index) blockGrid() (nbx, nby, nbz int) {
	return ix.Nx / ix.BlockB, ix.Ny / ix.BlockB, ix.Nz / ix.BlockB
}

// AppendHeader appends ix's header record — the option echo, the domain,
// the block size and the level count len(ix.Levels) — to dst.
func (ix *Index) AppendHeader(dst []byte) []byte {
	o := ix.Opts
	dst = append(dst, o.Compressor, o.Arrangement, boolByte(o.Pad), o.PadKind, boolByte(o.AdaptiveEB))
	dst = binary.AppendUvarint(dst, uint64(o.SZ2Block))
	dst = append(dst, o.Interp)
	for _, f := range [...]float64{o.EB, o.Alpha, o.Beta} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	for _, v := range [...]int{ix.Nx, ix.Ny, ix.Nz, ix.BlockB, len(ix.Levels)} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// AppendBlocks appends level li's block record — its block list as deltas
// of flat indices, in the level's merge order, and its padded flag — to dst.
func (ix *Index) AppendBlocks(dst []byte, li int) []byte {
	nbx, nby, _ := ix.blockGrid()
	lv := &ix.Levels[li]
	dst = binary.AppendUvarint(dst, uint64(len(lv.Blocks)))
	prev := int64(0)
	for _, bc := range lv.Blocks {
		flat := int64(bc[0] + nbx*(bc[1]+nby*bc[2]))
		dst = binary.AppendVarint(dst, flat-prev)
		prev = flat
	}
	return append(dst, boolByte(lv.Padded))
}

// AppendBox appends a TAC box's geometry record to dst.
func AppendBox(dst []byte, g layout.Box) []byte {
	for _, v := range [...]int{g.X0, g.Y0, g.Z0, g.WX, g.WY, g.WZ} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// appendSection serializes the index section (without the trailer).
func (ix *Index) appendSection(dst []byte) []byte {
	ver := byte(footerVersionV1)
	if ix.StreamCRCs {
		ver = footerVersionStreamCRC
	}
	dst = ix.AppendHeader(append(append(dst, Magic...), ver))
	for li, lv := range ix.Levels {
		dst = ix.AppendBlocks(dst, li)
		dst = binary.AppendUvarint(dst, uint64(len(lv.Streams)))
		for _, si := range lv.Streams {
			s := ix.Streams[si]
			dst = binary.AppendVarint(dst, int64(s.Box))
			if s.Box >= 0 {
				dst = AppendBox(dst, s.Geom)
			}
			dst = append(dst, s.Compressor)
			dst = binary.AppendUvarint(dst, uint64(s.Offset))
			dst = binary.AppendUvarint(dst, uint64(s.Len))
			dst = binary.AppendUvarint(dst, uint64(s.RawLen))
			if ix.StreamCRCs {
				dst = binary.LittleEndian.AppendUint32(dst, s.CRC)
			}
		}
	}
	return dst
}

// AppendFooter appends the serialized index section plus trailer to a
// container body and returns the extended slice.
func (ix *Index) AppendFooter(blob []byte) []byte {
	start := len(blob)
	blob = ix.appendSection(blob)
	section := blob[start:]
	var tr [TrailerLen]byte
	binary.LittleEndian.PutUint32(tr[0:], crc32.ChecksumIEEE(section))
	binary.LittleEndian.PutUint64(tr[4:], uint64(len(section)))
	copy(tr[12:], Magic)
	return append(blob, tr[:]...)
}

// Locate checks a fully in-memory container for an index trailer and, if
// present and self-consistent, returns the body length (the offset where
// the index section begins). ok is false when the container carries no
// (intact) footer.
func Locate(blob []byte) (bodyLen int, ok bool) {
	if len(blob) < TrailerLen {
		return 0, false
	}
	tr := blob[len(blob)-TrailerLen:]
	if string(tr[12:16]) != Magic {
		return 0, false
	}
	sectionLen := binary.LittleEndian.Uint64(tr[4:12])
	if sectionLen > uint64(len(blob)-TrailerLen) {
		return 0, false
	}
	body := len(blob) - TrailerLen - int(sectionLen)
	section := blob[body : len(blob)-TrailerLen]
	if crc32.ChecksumIEEE(section) != binary.LittleEndian.Uint32(tr[0:4]) {
		return 0, false
	}
	return body, true
}

// ReadFrom reads and parses the index footer of a container accessed
// through r with the given total size. It reads only the trailer and the
// index section — never the stream payloads. Containers without a footer
// return ErrNoIndex.
func ReadFrom(r io.ReaderAt, size int64) (*Index, error) {
	if size < TrailerLen {
		return nil, ErrNoIndex
	}
	var tr [TrailerLen]byte
	if _, err := r.ReadAt(tr[:], size-TrailerLen); err != nil {
		return nil, fmt.Errorf("index: reading trailer: %w", err)
	}
	if string(tr[12:16]) != Magic {
		return nil, ErrNoIndex
	}
	sectionLen := binary.LittleEndian.Uint64(tr[4:12])
	if sectionLen > uint64(size-TrailerLen) || sectionLen > 1<<31 {
		return nil, errors.New("index: implausible section length")
	}
	section := make([]byte, sectionLen)
	if _, err := r.ReadAt(section, size-TrailerLen-int64(sectionLen)); err != nil {
		return nil, fmt.Errorf("index: reading section: %w", err)
	}
	if crc32.ChecksumIEEE(section) != binary.LittleEndian.Uint32(tr[0:4]) {
		return nil, errors.New("index: section CRC mismatch")
	}
	ix, err := Parse(section, size)
	if err != nil {
		return nil, err
	}
	ix.SectionCRC = binary.LittleEndian.Uint32(tr[0:4])
	return ix, nil
}

// corrupt reports a truncated record or one that fails its checks.
func corrupt(what string) error {
	return fmt.Errorf("index: truncated or corrupt %s", what)
}

// corruptErr is corrupt for a record whose read failed with err.
func corruptErr(what string, err error) error {
	return fmt.Errorf("index: truncated or corrupt %s: %w", what, err)
}

// ParseHeader decodes the header record at r into a new Index — Opts, the
// domain, the block size and one empty Level per level. The checks every
// decoder relies on run here: an arrangement byte that names a
// layout.Arrangement; a domain CheckDims accepts, at most 2²⁴ per axis; a
// power-of-two block size of at least 8 that divides every axis; and 1–64
// levels that leave the coarsest unit block at least 2 cells wide.
func ParseHeader(r *wire.Reader) (*Index, error) {
	ix := &Index{}
	o := &ix.Opts
	o.Compressor, o.Arrangement, o.Pad, o.PadKind, o.AdaptiveEB = r.Byte(), r.Byte(), r.Byte() != 0, r.Byte(), r.Byte() != 0
	if !layout.Arrangement(o.Arrangement).Valid() {
		return nil, corrupt("header arrangement")
	}
	o.SZ2Block = int(r.Uvarint(maxSZ2Block))
	o.Interp = r.Byte()
	o.EB, o.Alpha, o.Beta = r.Float64(), r.Float64(), r.Float64()
	// Dims bounds the domain's product, since decoders allocate level
	// arrays from it; the per-axis cap alone would admit 2⁷² samples.
	ix.Nx, ix.Ny, ix.Nz = r.Dims()
	ix.BlockB = int(r.Uvarint(maxBlockB))
	nLevels := int(r.Uvarint(maxLevels))
	if err := r.Err(); err != nil {
		return nil, corruptErr("header", err)
	}
	if ix.Nx > maxDim || ix.Ny > maxDim || ix.Nz > maxDim {
		return nil, corrupt("header domain dims")
	}
	if ix.BlockB < 8 || ix.BlockB&(ix.BlockB-1) != 0 {
		return nil, corrupt("header block size")
	}
	if nLevels == 0 {
		return nil, corrupt("header level count")
	}
	if ix.Nx%ix.BlockB != 0 || ix.Ny%ix.BlockB != 0 || ix.Nz%ix.BlockB != 0 {
		return nil, corrupt("header: dims not multiples of block size")
	}
	if ix.BlockB>>(nLevels-1) < 2 {
		return nil, corrupt("header: levels too deep for block size")
	}
	ix.Levels = make([]Level, nLevels)
	return ix, nil
}

// ParseBlocks decodes level li's block record at r into
// ix.Levels[li].Blocks and .Padded. The block count is bounded by the
// domain's block total and by the bytes left — every block costs at least
// one delta byte — so a count cannot drive an allocation larger than the
// record that claims it.
func (ix *Index) ParseBlocks(r *wire.Reader, li int) error {
	nbx, nby, nbz := ix.blockGrid()
	total := nbx * nby * nbz
	n := r.Uvarint(uint64(min(total, r.Len())))
	lv := &ix.Levels[li]
	lv.Blocks = make([][3]int, int(n))
	prev := int64(0)
	for i := range lv.Blocks {
		prev += r.Varint()
		flat := int(prev)
		if flat < 0 || flat >= total {
			return corrupt("block index out of range")
		}
		lv.Blocks[i] = [3]int{flat % nbx, (flat / nbx) % nby, flat / (nbx * nby)}
	}
	lv.Padded = r.Byte() != 0
	if err := r.Err(); err != nil {
		return corruptErr("block list", err)
	}
	return nil
}

// ParseBox decodes the TAC box geometry record at r. The box must be
// non-empty and lie inside the domain's unit-block grid.
func (ix *Index) ParseBox(r *wire.Reader) (layout.Box, error) {
	var g [6]int
	for i := range g {
		g[i] = int(r.Uvarint(maxDim))
	}
	if err := r.Err(); err != nil {
		return layout.Box{}, corruptErr("box geometry", err)
	}
	b := layout.Box{X0: g[0], Y0: g[1], Z0: g[2], WX: g[3], WY: g[4], WZ: g[5]}
	nbx, nby, nbz := ix.blockGrid()
	if b.WX < 1 || b.WY < 1 || b.WZ < 1 ||
		b.X0+b.WX > nbx || b.Y0+b.WY > nby || b.Z0+b.WZ > nbz {
		return layout.Box{}, corrupt("box: out of domain")
	}
	return b, nil
}

// Parse decodes an index section. containerSize, when > 0, bounds stream
// extents: every stream must lie fully inside the container body.
func Parse(section []byte, containerSize int64) (*Index, error) {
	r := wire.NewReader(section)
	if string(r.Bytes(len(Magic))) != Magic {
		return nil, corrupt("section magic")
	}
	ver := r.Byte()
	if ver != footerVersionV1 && ver != footerVersionStreamCRC {
		return nil, fmt.Errorf("index: unsupported index version %d", ver)
	}
	ix, err := ParseHeader(&r)
	if err != nil {
		return nil, err
	}
	ix.StreamCRCs = ver == footerVersionStreamCRC
	nbx, nby, nbz := ix.blockGrid()
	total := nbx * nby * nbz
	// Every unit block is carried by exactly one stream: a merged level's
	// block list or a TAC box. The claims must add up to the grid, and the
	// claim bitset rules out a block claimed twice, so together they rule
	// out a block claimed by none. A grid of up to smallBlockGrid blocks is
	// tracked on the stack. A larger grid's bitset must cost at most
	// claimSetFree bytes or 1/64 of the container, or only the count is
	// checked: only a grid of over 2²² blocks compressed better than 512:1
	// gets there.
	var small [smallBlockGrid / 64]uint64
	var claimed blockSet
	switch {
	case total <= smallBlockGrid:
		claimed = small[:]
	case int64(total+63)/64*8 <= max(claimSetFree, containerSize/64):
		claimed = make(blockSet, (total+63)/64)
	}
	claims := 0 // never above total, so the sum cannot overflow
	a := layout.Arrangement(ix.Opts.Arrangement)
	for li := range ix.Levels {
		if err := ix.ParseBlocks(&r, li); err != nil {
			return nil, err
		}
		lv := &ix.Levels[li]
		if a != layout.TAC {
			if claims += len(lv.Blocks); claims > total {
				return nil, errClaimedTwice
			}
			for _, bc := range lv.Blocks {
				if claimed != nil && !claimed.add(bc[0]+nbx*(bc[1]+nby*bc[2])) {
					return nil, errClaimedTwice
				}
			}
		}
		nStreams := int(r.Uvarint(uint64(total)))
		if err := r.Err(); err != nil {
			return nil, corruptErr("stream count", err)
		}
		// Presize the stream lists for at most the records the bytes left
		// can hold, so a count the section cannot back sizes nothing larger
		// than the section itself.
		minRecord := minStreamRecord
		if ix.StreamCRCs {
			minRecord += 4
		}
		room := min(nStreams, r.Len()/minRecord)
		lv.Streams = make([]int, 0, room)
		ix.Streams = slices.Grow(ix.Streams, room)
		u := ix.UnitBlockSize(li)
		for si := 0; si < nStreams; si++ {
			s := Stream{Level: li, Box: -1}
			switch box := r.Varint(); {
			case box == -1 && a == layout.TAC:
				return nil, corrupt("section: merged stream in a TAC container")
			case box != -1 && a != layout.TAC:
				return nil, corrupt("section: box stream in a merged container")
			case box == -1 && nStreams > 1:
				return nil, corrupt("section: merged level with multiple streams")
			case box != -1 && box != int64(si):
				return nil, corrupt("stream box id")
			case box == -1:
				// The merged level's array, sized by its arrangement.
				s.RawLen = a.RawLen(u, len(lv.Blocks), lv.Padded)
			default:
				s.Box = si
				if s.Geom, err = ix.ParseBox(&r); err != nil {
					return nil, err
				}
				if claims += s.Geom.WX * s.Geom.WY * s.Geom.WZ; claims > total {
					return nil, errClaimedTwice
				}
				if claimed != nil && !claimed.addBox(s.Geom, nbx, nby) {
					return nil, errClaimedTwice
				}
				// ParseBox keeps the box inside the domain, whose samples
				// Dims caps at 2³³, so the product cannot overflow.
				s.RawLen = int64(s.Geom.WX*u) * int64(s.Geom.WY*u) * int64(s.Geom.WZ*u) * 8
			}
			s.Compressor = r.Byte()
			off, n, rawLen := r.Uvarint(maxStreamLen), r.Uvarint(maxStreamLen), int64(r.Uvarint(maxStreamLen))
			if ix.StreamCRCs {
				s.CRC = r.Uint32()
			}
			if err := r.Err(); err != nil {
				return nil, corruptErr("stream record", err)
			}
			s.Offset, s.Len = int64(off), int64(n)
			if containerSize > 0 && s.Offset+s.Len > containerSize {
				return nil, corrupt("stream extent: past end of container")
			}
			// The decoded size follows from the record; a stream that says
			// otherwise cannot decode to what its level needs.
			if rawLen != s.RawLen {
				return nil, corrupt(fmt.Sprintf("stream raw length %d, the record implies %d", rawLen, s.RawLen))
			}
			lv.Streams = append(lv.Streams, len(ix.Streams))
			ix.Streams = append(ix.Streams, s)
		}
	}
	if r.Len() != 0 {
		return nil, corrupt("section: trailing bytes")
	}
	if claims != total {
		return nil, corrupt("section: unit block claimed by no stream")
	}
	return ix, nil
}

// minStreamRecord is the smallest stream record Parse accepts: a box id, a
// compressor byte and three extents of one byte each (plus 4 checksum bytes
// in a version-2 footer).
const minStreamRecord = 5

// Bounds of Parse's claim bitset (blockSet): the grid size it keeps on the
// stack, and the bytes it may allocate whatever the container's size.
const (
	smallBlockGrid = 4096
	claimSetFree   = 512 << 10
)

var errClaimedTwice = corrupt("section: unit block claimed twice")

// blockSet is a bitset over a grid's unit blocks, by flat raster index.
type blockSet []uint64

// add marks block i and reports whether it was unmarked.
func (s blockSet) add(i int) bool {
	w, bit := i/64, uint64(1)<<(i%64)
	if s[w]&bit != 0 {
		return false
	}
	s[w] |= bit
	return true
}

// addBox marks every block of box g in a grid nbx blocks wide and nby deep
// and reports whether all of them were unmarked.
func (s blockSet) addBox(g layout.Box, nbx, nby int) bool {
	for z := g.Z0; z < g.Z0+g.WZ; z++ {
		for y := g.Y0; y < g.Y0+g.WY; y++ {
			for x := g.X0; x < g.X0+g.WX; x++ {
				if !s.add(x + nbx*(y+nby*z)) {
					return false
				}
			}
		}
	}
	return true
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
