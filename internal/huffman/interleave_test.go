package huffman

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// EncodeInterleaved is the fixture writer for the read-only interleaved
// format (layout in interleave.go): data dealt round-robin into lanes
// bitstreams sharing one code table. The lane request is normalized to a
// valid wire count (rounded down to a power of two, capped at maxLanes, no
// empty lane); a stream left with one lane is written by Encode.
func EncodeInterleaved(data []int32, lanes int) []byte {
	if lanes > maxLanes {
		lanes = maxLanes
	}
	for lanes&(lanes-1) != 0 { // round down to a power of two
		lanes &= lanes - 1
	}
	for lanes > 1 && lanes > len(data) {
		lanes /= 2
	}
	if lanes <= 1 {
		return Encode(data)
	}
	c := new(scratch).coder(data)
	out := binary.AppendUvarint(nil, InterleavedTag)
	out = binary.AppendUvarint(out, uint64(len(data)))
	out = binary.AppendUvarint(out, uint64(lanes))
	out = c.appendDict(out)
	var payload []byte
	for j := 0; j < lanes; j++ {
		var lane []int32
		for i := j; i < len(data); i += lanes {
			lane = append(lane, data[i])
		}
		bw := &bitWriter{buf: payload}
		refEmit(c, bw, lane)
		out = binary.AppendUvarint(out, uint64(bw.Len()))
		payload = bw.Finish() // byte-aligns the lane
	}
	return append(out, payload...)
}

// interleaveCorpus returns symbol streams spanning the shapes the encoder
// sees in practice: empty, tiny, batch-boundary sizes, clustered
// quantization codes, and a skewed distribution with long codes.
func interleaveCorpus() map[string][]int32 {
	rng := rand.New(rand.NewSource(7))
	gauss := make([]int32, 200000)
	for i := range gauss {
		gauss[i] = 4096 + int32(rng.NormFloat64()*4)
	}
	var skewed []int32
	f1, f2 := 1, 1
	for s := int32(0); s < 36; s++ {
		for i := 0; i < f1 && len(skewed) < 150000; i++ {
			skewed = append(skewed, s)
		}
		f1, f2 = f2, f1+f2
		if f1 > 60000 {
			f1 = 60000
		}
	}
	rng.Shuffle(len(skewed), func(i, j int) { skewed[i], skewed[j] = skewed[j], skewed[i] })
	return map[string][]int32{
		"empty":    {},
		"one":      {42},
		"tiny":     {-3, 9, -3, -3, 9, 7},
		"batchish": {1, 2, 1, 1, 2, 1, 2, 2, 1, 1, 1, 2, 1},
		"gauss":    gauss,
		"skewed":   skewed,
	}
}

func TestInterleavedRoundTripMatrix(t *testing.T) {
	for name, data := range interleaveCorpus() {
		for _, lanes := range []int{1, 2, 4, 6, 8, 32, 1 << 20} {
			dec, err := Decode(EncodeInterleaved(data, lanes))
			if err != nil {
				t.Fatalf("%s lanes=%d: decode: %v", name, lanes, err)
			}
			if len(dec) != len(data) {
				t.Fatalf("%s lanes=%d: length %d, want %d", name, lanes, len(dec), len(data))
			}
			for i := range data {
				if dec[i] != data[i] {
					t.Fatalf("%s lanes=%d: symbol %d: got %d want %d", name, lanes, i, dec[i], data[i])
				}
			}
		}
	}
}

// TestLegacyDecoderRejectsInterleaved pins the discriminator property: the
// tag exceeds the single-lane plausibility bound, so a decoder that only
// knows the old format errors instead of misparsing.
func TestLegacyDecoderRejectsInterleaved(t *testing.T) {
	if InterleavedTag <= maxN {
		t.Fatalf("InterleavedTag %#x must exceed maxN %#x", int64(InterleavedTag), int64(maxN))
	}
	enc := EncodeInterleaved([]int32{1, 2, 3, 1, 2, 3, 1, 2}, 2)
	buf := enc
	n, k, err := readHeader(&buf)
	if err == nil {
		t.Fatalf("legacy readHeader accepted interleaved stream: n=%d k=%d", n, k)
	}
}

func TestInterleavedDecodeErrors(t *testing.T) {
	data := make([]int32, 50000)
	rng := rand.New(rand.NewSource(11))
	for i := range data {
		data[i] = int32(rng.Intn(256) - 128)
	}
	enc := EncodeInterleaved(data, 4)

	// Truncation at every byte boundary must error, never panic.
	for cut := 0; cut < len(enc); cut += 1 + len(enc)/97 {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncated at %d/%d bytes: decode succeeded", cut, len(enc))
		}
	}

	// Bit flips anywhere — header, dictionary, lane lengths, payloads —
	// must never panic, and an accepted stream must keep the header's
	// symbol count. Symbol exactness under payload corruption is the
	// container checksum's job (a flip can swap equal-length codewords,
	// which no entropy layer can detect), same as the single-lane format.
	for off := 0; off < len(enc); off += 1 + len(enc)/211 {
		buf := append([]byte(nil), enc...)
		buf[off] ^= 0x10
		if dec, err := Decode(buf); err == nil && len(dec) != len(data) {
			t.Fatalf("bitflip at %d: accepted with wrong length %d", off, len(dec))
		}
	}

	// Directed header corruptions.
	tag, m := binary.Uvarint(enc)
	if tag != InterleavedTag {
		t.Fatalf("test stream is not interleaved")
	}
	rest := enc[m:]
	_, mn := binary.Uvarint(rest)
	nEnd := m + mn

	bad := binary.AppendUvarint(nil, InterleavedTag)
	bad = binary.AppendUvarint(bad, uint64(len(data)))
	bad = binary.AppendUvarint(bad, 3) // non-power-of-two lane count
	bad = append(bad, enc[nEnd+1:]...)
	if _, err := Decode(bad); err == nil {
		t.Fatalf("lane count 3 accepted")
	}

	bad = binary.AppendUvarint(nil, InterleavedTag)
	bad = binary.AppendUvarint(bad, maxN+1) // implausible n
	bad = append(bad, enc[nEnd:]...)
	if _, err := Decode(bad); err == nil {
		t.Fatalf("implausible n accepted")
	}

	if _, err := Decode(binary.AppendUvarint(nil, InterleavedTag)); err == nil {
		t.Fatalf("bare tag accepted")
	}
}

// TestInterleavedLaneBitsCrossCheck corrupts one lane's advertised bit
// length so every code still decodes but the lane does not consume exactly
// its payload; the consumed-bits check must catch it.
func TestInterleavedLaneBitsCrossCheck(t *testing.T) {
	data := make([]int32, 1<<14)
	for i := range data {
		data[i] = int32(i % 7)
	}
	enc := EncodeInterleaved(data, 4)

	// Walk the header to the first lane-length uvarint.
	buf := enc
	for i := 0; i < 3; i++ { // tag, n, lanes
		_, m := binary.Uvarint(buf)
		buf = buf[m:]
	}
	uk, m := binary.Uvarint(buf)
	buf = buf[m:]
	for i := 0; i < int(uk); i++ { // dictionary entries: symbol delta + length
		_, m = binary.Uvarint(buf)
		buf = buf[m:]
		_, m = binary.Uvarint(buf)
		buf = buf[m:]
	}
	laneOff := len(enc) - len(buf)

	ub, m := binary.Uvarint(enc[laneOff:])
	if m != len(binary.AppendUvarint(nil, ub-8)) {
		t.Skip("lane-length uvarint width changes; directed edit not applicable")
	}
	mut := append([]byte(nil), enc...)
	copy(mut[laneOff:], binary.AppendUvarint(nil, ub-8)) // shrink lane 0 by one byte's bits
	if _, err := Decode(mut); err == nil {
		t.Fatalf("shrunken lane 0 length accepted")
	}
}

func FuzzInterleavedRoundTrip(f *testing.F) {
	// Seed the corrupt-stream argument with the committed SZ backend
	// fixtures (their payloads embed real huffman sections) and with
	// interleaved encodings of small streams, so mutations explore the lane
	// header and lane payload structure from shipped bit patterns.
	for _, pat := range []string{
		filepath.Join("..", "sz3", "testdata", "*.sz3"),
		filepath.Join("..", "sz2", "testdata", "*.sz2"),
	} {
		paths, err := filepath.Glob(pat)
		if err != nil || len(paths) == 0 {
			f.Fatalf("no golden fixtures for %s: %v", pat, err)
		}
		for _, p := range paths {
			blob, err := os.ReadFile(p)
			if err != nil {
				f.Fatalf("read golden fixture: %v", err)
			}
			f.Add([]byte{}, uint8(4), uint8(1), blob)
		}
	}
	f.Add([]byte{}, uint8(0), uint8(0), []byte{})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0}, uint8(2), uint8(2),
		EncodeInterleaved([]int32{6, 7, 6, 6, 7, 6, 8, 6}, 2))
	f.Add([]byte{9, 9, 9, 9}, uint8(8), uint8(3),
		EncodeInterleaved([]int32{-1, 1, -1, 1, -1, 1, -1, 1, 2, 2, 2, 2}, 4))
	f.Fuzz(func(t *testing.T, symRaw []byte, lanes, flip uint8, stream []byte) {
		data := make([]int32, len(symRaw)/4)
		for i := range data {
			data[i] = int32(uint32(symRaw[4*i]) | uint32(symRaw[4*i+1])<<8 |
				uint32(symRaw[4*i+2])<<16 | uint32(symRaw[4*i+3])<<24)
		}
		// Round trip at an arbitrary lane request (EncodeInterleaved
		// normalizes it): must be symbol-exact.
		enc := EncodeInterleaved(data, int(lanes))
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of valid encoding failed: %v", err)
		}
		if len(dec) != len(data) {
			t.Fatalf("length %d, want %d", len(dec), len(data))
		}
		for i := range data {
			if dec[i] != data[i] {
				t.Fatalf("symbol %d: got %d want %d", i, dec[i], data[i])
			}
		}
		// Corrupt-stream robustness: arbitrary bytes, truncations, and
		// mutations (which land in the lane header as often as in the
		// payloads) must error or decode cleanly — never panic, and never
		// return a slice that disagrees with the length they claim.
		if dec, err := Decode(stream); err == nil && cap(dec) != len(dec) {
			t.Fatalf("accepted stream returned overgrown slice")
		}
		if len(enc) > 0 {
			if _, err := Decode(enc[:len(enc)*3/4]); err != nil {
				_ = err
			}
			mut := append([]byte(nil), enc...)
			mut[int(flip)%len(mut)] ^= 0x5A
			if _, err := Decode(mut); err != nil {
				_ = err
			}
		}
	})
}
