package index

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// seedGoldenContainers adds every committed golden container to the corpus:
// each carries a real footer (v3 linear, v3 TAC, v4 mixed-codec), so the
// fuzzer starts from valid bytes of every index shape we ship instead of
// having to rediscover the grammar.
func seedGoldenContainers(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "core", "testdata", "*.mrw"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden containers found: %v", err)
	}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			f.Fatalf("read golden container: %v", err)
		}
		f.Add(blob)
	}
}

// withTrailer terminates an index section with its trailer, so the result
// is a footer-only container whose CRC holds.
func withTrailer(section []byte) []byte {
	blob := append([]byte(nil), section...)
	blob = binary.LittleEndian.AppendUint32(blob, crc32.ChecksumIEEE(section))
	blob = binary.LittleEndian.AppendUint64(blob, uint64(len(section)))
	return append(blob, Magic...)
}

// FuzzContainerIndex hammers the footer parser with mutated trailers and
// sections — truncated footers, overflowing uvarints, offsets past EOF —
// in the spirit of the header-scan hardening: the parser must reject or
// accept, never panic, never allocate absurdly, and anything it accepts
// must re-serialize into a parseable footer.
func FuzzContainerIndex(f *testing.F) {
	seedGoldenContainers(f)
	ix, body := sampleIndex()
	f.Add(ix.AppendFooter(append([]byte(nil), body...)))
	// A single-level merged container.
	small := &Index{
		Opts: Opts{Compressor: 0, Arrangement: 0},
		Nx:   16, Ny: 16, Nz: 16, BlockB: 8,
		Levels: []Level{{Blocks: [][3]int{
			{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
		}, Streams: []int{0}}},
		Streams: []Stream{
			{Level: 0, Box: -1, Offset: 10, Len: 20, RawLen: 8 * 8 * 8 * 8 * 8},
		},
	}
	f.Add(small.AppendFooter(make([]byte, 40)))
	// The same shapes with version-2 footers: per-stream checksums present.
	ixCRC, bodyCRC := sampleIndex()
	ixCRC.StreamCRCs = true
	for i := range ixCRC.Streams {
		ixCRC.Streams[i].CRC = uint32(0xdead0000 + i)
	}
	f.Add(ixCRC.AppendFooter(append([]byte(nil), bodyCRC...)))
	smallCRC := *small
	smallCRC.StreamCRCs = true
	smallCRC.Streams = append([]Stream(nil), small.Streams...)
	smallCRC.Streams[0].CRC = 0xfeedbeef
	f.Add(smallCRC.AppendFooter(make([]byte, 40)))
	// A v2 footer chopped mid-checksum: the parser must reject, not read
	// past the section.
	v2full := ixCRC.AppendFooter(append([]byte(nil), bodyCRC...))
	f.Add(v2full[:len(v2full)-TrailerLen-2])
	// A truncated footer and raw garbage.
	full := ix.AppendFooter(append([]byte(nil), body...))
	f.Add(full[:len(full)-7])
	f.Add([]byte("MRIX\x01garbage"))
	f.Add([]byte("MRIX\x02garbage"))
	// An overflowing section-length field.
	over := append([]byte(nil), full...)
	binary.LittleEndian.PutUint64(over[len(over)-12:], ^uint64(0))
	f.Add(over)
	// A CRC-valid footer whose block count has no bytes behind it.
	f.Add(withTrailer(hollowSection()))

	f.Fuzz(func(t *testing.T, blob []byte) {
		var got *Index
		var err error
		if n := allocatedBytes(func() {
			got, err = ReadFrom(bytes.NewReader(blob), int64(len(blob)))
		}); n > 64*uint64(len(blob))+1<<20 {
			t.Fatalf("ReadFrom allocated %d bytes for a %d-byte container", n, len(blob))
		}
		if err != nil {
			return
		}
		// Whatever parses must survive a write→read round trip.
		re := got.AppendFooter(nil)
		body, ok := Locate(re)
		if !ok || body != 0 {
			t.Fatalf("re-serialized index not locatable (body=%d ok=%v)", body, ok)
		}
		back, err := Parse(re[:len(re)-TrailerLen], 0)
		if err != nil {
			t.Fatalf("re-serialized index does not parse: %v", err)
		}
		// The round trip must preserve the checksum story bit for bit: a
		// v2 footer stays v2 with the same per-stream CRCs, a v1 footer
		// must not grow checksums out of thin air.
		if back.StreamCRCs != got.StreamCRCs {
			t.Fatalf("StreamCRCs flipped across round trip: %v -> %v", got.StreamCRCs, back.StreamCRCs)
		}
		for i := range got.Streams {
			if back.Streams[i].CRC != got.Streams[i].CRC {
				t.Fatalf("stream %d CRC changed across round trip", i)
			}
		}
		// Locate must agree with ReadFrom on in-memory blobs.
		if _, ok := Locate(blob); !ok {
			t.Fatal("ReadFrom accepted a footer Locate rejects")
		}
	})
}
