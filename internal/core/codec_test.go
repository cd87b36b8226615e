package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultio"
	"repro/internal/flatepool"
	"repro/internal/wire"
)

// TestLevelCodecsRoundTrip proves per-level codec overrides across every
// arrangement: the container self-describes as format v4, decodes through
// the sequential path, reconstructs the overridden (lossless) level
// bit-exactly, and keeps the error-bounded levels within the bound.
func TestLevelCodecsRoundTrip(t *testing.T) {
	h, eb := goldenHierarchy(t)
	for _, arr := range []Arrangement{ArrangeLinear, ArrangeStack, ArrangeTAC, ArrangeZOrder1D} {
		t.Run(arr.String(), func(t *testing.T) {
			opt := Options{EB: eb, Compressor: SZ3, Arrangement: arr,
				LevelCodecs: map[int]Compressor{1: Flate}}
			c, err := CompressHierarchy(h, opt)
			if err != nil {
				t.Fatal(err)
			}
			if c.Blob[4] != containerVersionMixed {
				t.Fatalf("container version %d, want %d", c.Blob[4], containerVersionMixed)
			}
			got, err := Decompress(c.Blob)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Levels[1].Data.Equal(h.Levels[1].Data) {
				t.Fatal("flate-coded level is not bit-exact")
			}
			if d := h.Levels[0].Data.MaxAbsDiff(got.Levels[0].Data); d > eb {
				t.Fatalf("sz3 level error %g exceeds bound %g", d, eb)
			}
		})
	}
}

// TestLevelCodecsNoopOverrideStaysV3 pins the compatibility guarantee: an
// override that merely restates the container codec changes nothing — the
// bytes, version 3 included, are identical to the unoverridden container.
func TestLevelCodecsNoopOverrideStaysV3(t *testing.T) {
	h, eb := goldenHierarchy(t)
	plain, err := CompressHierarchy(h, TACSZ3Options(eb))
	if err != nil {
		t.Fatal(err)
	}
	opt := TACSZ3Options(eb)
	opt.LevelCodecs = map[int]Compressor{0: SZ3, 1: SZ3}
	noop, err := CompressHierarchy(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	if string(noop.Blob) != string(plain.Blob) {
		t.Fatal("no-op LevelCodecs changed the container bytes")
	}
	if noop.Blob[4] != containerVersion {
		t.Fatalf("no-op override wrote version %d, want %d", noop.Blob[4], containerVersion)
	}
}

// TestLevelCodecsValidation locks the write-time errors: out-of-range
// levels and unregistered codecs fail up front, with the registry
// vocabulary in the message.
func TestLevelCodecsValidation(t *testing.T) {
	h, eb := goldenHierarchy(t)
	opt := BaselineSZ3Options(eb)
	opt.LevelCodecs = map[int]Compressor{7: Flate}
	if _, err := CompressHierarchy(h, opt); err == nil || !strings.Contains(err.Error(), "level 7") {
		t.Fatalf("out-of-range level: %v", err)
	}
	opt.LevelCodecs = map[int]Compressor{1: Compressor(200)}
	_, err := CompressHierarchy(h, opt)
	if err == nil || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("unknown level codec: %v", err)
	}
	bad := BaselineSZ3Options(eb)
	bad.Compressor = Compressor(200)
	if _, err := CompressHierarchy(h, bad); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("unknown container codec: %v", err)
	}
}

// TestDecompressRejectsUnknownStreamCodec corrupts the per-stream codec
// byte in the body of the committed v4 fixture (footer cut off, so the body
// scan is what names the codec): the decoder must fail with the registry's
// actionable unknown-ID error, not panic or misdecode. A stream whose codes
// begin with the retired interleaved entropy tag must fail the same way:
// through DecodeIndexed, a Corrupt error from the Huffman header.
func TestDecompressRejectsUnknownStreamCodec(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "golden-mixed-sz3-flate-v4.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	mut := stripFooter(t, blob)
	// The v4 codec byte sits immediately before each stream's payload.
	mut[ix.Streams[len(ix.Streams)-1].Offset-1] = 200
	_, err = Decompress(mut)
	if err == nil || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("corrupt codec byte: %v", err)
	}

	tac, err := os.ReadFile(filepath.Join("testdata", "golden-tac-sz3-v3.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	if ix, err = loadIndex(tac); err != nil {
		t.Fatal(err)
	}
	s := ix.Streams[0]
	in, err := flatepool.Inflate(tac[s.Offset : s.Offset+s.Len])
	if err != nil {
		t.Fatal(err)
	}
	raw := bytes.Clone(in.Bytes())
	in.Release()
	// An sz3 stream: magic, interpolant, dims, level count, eb table, then
	// the Huffman codes as a length-prefixed chunk.
	r := wire.NewReader(raw)
	r.Bytes(5)
	r.Dims()
	for l, n := uint64(0), r.Uvarint(62); l <= n; l++ {
		r.Float64()
	}
	head := raw[:len(raw)-r.Len()]
	codes := r.Chunk()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	rest := r.Rest()
	// rebuild deflates the stream with codes in place of its own and indexes
	// the result as stream 0.
	rebuild := func(codes []byte) []byte {
		b := binary.AppendUvarint(bytes.Clone(head), uint64(len(codes)))
		payload, err := flatepool.Deflate(nil, append(append(b, codes...), rest...))
		if err != nil {
			t.Fatal(err)
		}
		ix.Streams[0].CRC = crc32.ChecksumIEEE(payload)
		return payload
	}
	if _, err := DecodeIndexed(context.Background(), ix, 0, rebuild(codes), nil); err != nil {
		t.Fatalf("rebuilt stream: %v", err)
	}
	tagged := append(binary.AppendUvarint(nil, 0x2494C5645), codes...)
	_, err = DecodeIndexed(context.Background(), ix, 0, rebuild(tagged), nil)
	if !faultio.IsCorrupt(err) || !strings.Contains(err.Error(), "huffman: header") {
		t.Fatalf("stream behind the retired interleaved tag: got %v, want a Corrupt Huffman header error", err)
	}
}
