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

	"repro/internal/field"
	"repro/internal/layout"
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
	maxStreamLen = int64(1) << 56
)

// ErrNoIndex reports that the container carries no index footer (a v1/v2
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

// uvarint decodes a uvarint from the front of *buf and advances past it.
func uvarint(buf *[]byte) (uint64, bool) {
	v, n := binary.Uvarint(*buf)
	if n <= 0 {
		return 0, false
	}
	*buf = (*buf)[n:]
	return v, true
}

// varint decodes a varint from the front of *buf and advances past it.
func varint(buf *[]byte) (int64, bool) {
	v, n := binary.Varint(*buf)
	if n <= 0 {
		return 0, false
	}
	*buf = (*buf)[n:]
	return v, true
}

// ParseHeader decodes the header record at the front of buf into a new
// Index — Opts, the domain, the block size and one empty Level per level —
// and returns it with the bytes that follow. sz2Byte reads the SZ2 block
// size as the single byte a version-1 container body stored; every other
// writer emits a uvarint. The checks every decoder relies on run here: an
// arrangement byte that names a layout.Arrangement; a domain CheckDims
// accepts, at most 2²⁴ per axis; a power-of-two block size of at least 8
// that divides every axis; and 1–64 levels that leave the coarsest unit
// block at least 2 cells wide.
func ParseHeader(buf []byte, sz2Byte bool) (*Index, []byte, error) {
	if len(buf) < 5 {
		return nil, nil, corrupt("header options")
	}
	ix := &Index{}
	o := &ix.Opts
	o.Compressor, o.Arrangement, o.Pad, o.PadKind, o.AdaptiveEB = buf[0], buf[1], buf[2] != 0, buf[3], buf[4] != 0
	if !layout.Arrangement(o.Arrangement).Valid() {
		return nil, nil, corrupt("header arrangement")
	}
	buf = buf[5:]
	if sz2Byte {
		if len(buf) < 1 {
			return nil, nil, corrupt("header SZ2 block size")
		}
		o.SZ2Block = int(buf[0])
		buf = buf[1:]
	} else {
		bs, ok := uvarint(&buf)
		if !ok || bs > maxSZ2Block {
			return nil, nil, corrupt("header SZ2 block size")
		}
		o.SZ2Block = int(bs)
	}
	if len(buf) < 1+3*8 {
		return nil, nil, corrupt("header interp/floats")
	}
	o.Interp = buf[0]
	buf = buf[1:]
	for _, p := range [...]*float64{&o.EB, &o.Alpha, &o.Beta} {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
	}
	var dims [5]uint64
	for i := range dims {
		v, ok := uvarint(&buf)
		if !ok {
			return nil, nil, corrupt("header dims")
		}
		dims[i] = v
	}
	// The per-axis cap alone would admit a 2⁷²-sample domain; CheckDims also
	// bounds the product, since decoders allocate level arrays from these.
	if _, _, _, _, err := field.CheckDims(dims[0], dims[1], dims[2]); err != nil ||
		dims[0] > maxDim || dims[1] > maxDim || dims[2] > maxDim {
		return nil, nil, corrupt("header domain dims")
	}
	if dims[3] < 8 || dims[3] > maxBlockB || dims[3]&(dims[3]-1) != 0 {
		return nil, nil, corrupt("header block size")
	}
	if dims[4] == 0 || dims[4] > maxLevels {
		return nil, nil, corrupt("header level count")
	}
	ix.Nx, ix.Ny, ix.Nz = int(dims[0]), int(dims[1]), int(dims[2])
	ix.BlockB = int(dims[3])
	nLevels := int(dims[4])
	if ix.Nx%ix.BlockB != 0 || ix.Ny%ix.BlockB != 0 || ix.Nz%ix.BlockB != 0 {
		return nil, nil, corrupt("header: dims not multiples of block size")
	}
	if ix.BlockB>>(nLevels-1) < 2 {
		return nil, nil, corrupt("header: levels too deep for block size")
	}
	ix.Levels = make([]Level, nLevels)
	return ix, buf, nil
}

// ParseBlocks decodes level li's block record at the front of buf into
// ix.Levels[li].Blocks and .Padded and returns the bytes that follow. The
// block count is bounded by the domain's block total and by the bytes left —
// every block costs at least one delta byte — so a count cannot drive an
// allocation larger than the record that claims it.
func (ix *Index) ParseBlocks(buf []byte, li int) ([]byte, error) {
	nbx, nby, nbz := ix.blockGrid()
	total := nbx * nby * nbz
	// Compare unsigned: int(n) may wrap negative.
	n, ok := uvarint(&buf)
	if !ok || n > uint64(total) || n > uint64(len(buf)) {
		return nil, corrupt("block count")
	}
	lv := &ix.Levels[li]
	lv.Blocks = make([][3]int, int(n))
	prev := int64(0)
	for i := range lv.Blocks {
		d, ok := varint(&buf)
		if !ok {
			return nil, corrupt("block delta")
		}
		prev += d
		flat := int(prev)
		if flat < 0 || flat >= total {
			return nil, corrupt("block index out of range")
		}
		lv.Blocks[i] = [3]int{flat % nbx, (flat / nbx) % nby, flat / (nbx * nby)}
	}
	if len(buf) < 1 {
		return nil, corrupt("padded flag")
	}
	lv.Padded = buf[0] != 0
	return buf[1:], nil
}

// ParseBox decodes the TAC box geometry record at the front of buf and
// returns the box with the bytes that follow. The box must be non-empty and
// lie inside the domain's unit-block grid.
func (ix *Index) ParseBox(buf []byte) (layout.Box, []byte, error) {
	var g [6]int
	for i := range g {
		v, ok := uvarint(&buf)
		if !ok || v > maxDim {
			return layout.Box{}, nil, corrupt("box geometry")
		}
		g[i] = int(v)
	}
	b := layout.Box{X0: g[0], Y0: g[1], Z0: g[2], WX: g[3], WY: g[4], WZ: g[5]}
	nbx, nby, nbz := ix.blockGrid()
	if b.WX < 1 || b.WY < 1 || b.WZ < 1 ||
		b.X0+b.WX > nbx || b.Y0+b.WY > nby || b.Z0+b.WZ > nbz {
		return layout.Box{}, nil, corrupt("box: out of domain")
	}
	return b, buf, nil
}

// Parse decodes an index section. containerSize, when > 0, bounds stream
// extents: every stream must lie fully inside the container body.
func Parse(section []byte, containerSize int64) (*Index, error) {
	if len(section) < len(Magic)+1 || string(section[:len(Magic)]) != Magic {
		return nil, corrupt("section magic")
	}
	ver := section[len(Magic)]
	if ver != footerVersionV1 && ver != footerVersionStreamCRC {
		return nil, fmt.Errorf("index: unsupported index version %d", ver)
	}
	ix, buf, err := ParseHeader(section[len(Magic)+1:], false)
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
	tac := layout.Arrangement(ix.Opts.Arrangement) == layout.TAC
	for li := range ix.Levels {
		if buf, err = ix.ParseBlocks(buf, li); err != nil {
			return nil, err
		}
		lv := &ix.Levels[li]
		if !tac {
			if claims += len(lv.Blocks); claims > total {
				return nil, errClaimedTwice
			}
			for _, bc := range lv.Blocks {
				if claimed != nil && !claimed.add(bc[0]+nbx*(bc[1]+nby*bc[2])) {
					return nil, errClaimedTwice
				}
			}
		}
		nStreams64, ok := uvarint(&buf)
		if !ok || nStreams64 > uint64(total) {
			return nil, corrupt("stream count")
		}
		for si := 0; si < int(nStreams64); si++ {
			s := Stream{Level: li}
			box64, ok := varint(&buf)
			if !ok || box64 < -1 || box64 != int64(si) && box64 != -1 {
				return nil, corrupt("stream box id")
			}
			s.Box = int(box64)
			if s.Box < 0 && nStreams64 > 1 {
				return nil, corrupt("section: merged level with multiple streams")
			}
			if s.Box >= 0 {
				if s.Geom, buf, err = ix.ParseBox(buf); err != nil {
					return nil, err
				}
				if tac {
					if claims += s.Geom.WX * s.Geom.WY * s.Geom.WZ; claims > total {
						return nil, errClaimedTwice
					}
					if claimed != nil && !claimed.addBox(s.Geom, nbx, nby) {
						return nil, errClaimedTwice
					}
				}
			}
			if len(buf) < 1 {
				return nil, corrupt("stream compressor")
			}
			s.Compressor = buf[0]
			buf = buf[1:]
			var vals [3]uint64
			for i := range vals {
				v, ok := uvarint(&buf)
				if !ok {
					return nil, corrupt("stream extent")
				}
				vals[i] = v
			}
			if vals[0] > uint64(maxStreamLen) || vals[1] > uint64(maxStreamLen) || vals[2] > uint64(maxStreamLen) {
				return nil, corrupt("stream extent: overflow")
			}
			s.Offset, s.Len, s.RawLen = int64(vals[0]), int64(vals[1]), int64(vals[2])
			if containerSize > 0 && s.Offset+s.Len > containerSize {
				return nil, corrupt("stream extent: past end of container")
			}
			if ix.StreamCRCs {
				if len(buf) < 4 {
					return nil, corrupt("stream crc")
				}
				s.CRC = binary.LittleEndian.Uint32(buf)
				buf = buf[4:]
			}
			lv.Streams = append(lv.Streams, len(ix.Streams))
			ix.Streams = append(ix.Streams, s)
		}
	}
	if len(buf) != 0 {
		return nil, corrupt("section: trailing bytes")
	}
	if claims != total {
		return nil, corrupt("section: unit block claimed by no stream")
	}
	return ix, nil
}

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
