package huffman

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

func roundTrip(t *testing.T, data []int32) {
	t.Helper()
	enc := Encode(data)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(data) {
		t.Fatalf("length %d, want %d", len(dec), len(data))
	}
	for i := range data {
		if dec[i] != data[i] {
			t.Fatalf("symbol %d: got %d want %d", i, dec[i], data[i])
		}
	}
}

func TestEmpty(t *testing.T) { roundTrip(t, []int32{}) }

func TestSingleSymbol(t *testing.T) {
	roundTrip(t, []int32{7})
	roundTrip(t, []int32{7, 7, 7, 7, 7})
}

func TestTwoSymbols(t *testing.T) {
	roundTrip(t, []int32{1, 2, 1, 1, 2, 1})
}

func TestNegativeSymbols(t *testing.T) {
	roundTrip(t, []int32{-5, 3, -5, 0, 1 << 30, -(1 << 30)})
}

func TestGeometricDistribution(t *testing.T) {
	// Quantization codes cluster around a center; mimic that.
	rng := rand.New(rand.NewSource(1))
	data := make([]int32, 20000)
	for i := range data {
		data[i] = 32768 + int32(rng.NormFloat64()*3)
	}
	enc := Encode(data)
	roundTrip(t, data)
	// Entropy of this distribution is ~3.3 bits; Huffman should get well
	// below the 32 bits/symbol raw size.
	if len(enc)*8 > len(data)*6 {
		t.Fatalf("poor compression: %d bits for %d symbols", len(enc)*8, len(data))
	}
}

func TestSkewedDistributionDepthLimit(t *testing.T) {
	// Fibonacci-like frequencies create maximal tree depth; ensure the
	// length-limited fallback still round-trips.
	var data []int32
	f1, f2 := 1, 1
	for s := int32(0); s < 40; s++ {
		for i := 0; i < f1 && len(data) < 300000; i++ {
			data = append(data, s)
		}
		f1, f2 = f2, f1+f2
		if f1 > 100000 {
			f1 = 100000
		}
	}
	roundTrip(t, data)
}

func TestUniformLargeAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]int32, 5000)
	for i := range data {
		data[i] = int32(rng.Intn(1000))
	}
	roundTrip(t, data)
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("expected error for empty buffer")
	}
	if _, err := Decode([]byte{0xFF}); err == nil {
		t.Fatal("expected error for truncated header")
	}
	// Valid encode, then truncate the bit stream.
	enc := Encode([]int32{1, 2, 3, 4, 5, 6, 7, 8})
	// The retired interleaved format began with the tag 0x2494C5645, which
	// is above maxN: such a stream fails in the header, never decodes.
	if _, err := Decode(append(binary.AppendUvarint(nil, 0x2494C5645), enc...)); !errors.Is(err, wire.ErrRange) {
		t.Fatalf("stream behind the retired interleaved tag: err %v, want wire.ErrRange", err)
	}
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("expected error for truncated stream")
	}
	// A header may claim up to 2³³ symbols and dictionary entries; the
	// dictionary is bounded by the bytes present before anything is sized
	// from it, so a few bytes cannot demand tens of gigabytes.
	huge := binary.AppendUvarint(binary.AppendUvarint(nil, maxN), maxN)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Decode(append(huge, 2, 1, 2, 1)); err == nil {
		t.Fatal("expected error for a dictionary larger than the stream")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("a 12-byte stream allocated %d bytes", grown)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	prop := func(data []int32) bool {
		enc := Encode(data)
		dec, err := Decode(enc)
		if err != nil || len(dec) != len(data) {
			return false
		}
		for i := range data {
			if dec[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzHuffmanRoundTrip asserts decode(encode(x)) == x for arbitrary symbol
// streams, and that decoding arbitrary (typically corrupt) bytes returns an
// error instead of panicking.
func FuzzHuffmanRoundTrip(f *testing.F) {
	// Seed the decode-robustness argument with the committed SZ backend
	// fixtures: their payloads embed real huffman sections, so the fuzzer's
	// corrupt-stream mutations start from shipped bit patterns.
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
			f.Add([]byte{}, blob)
		}
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0, 1, 255, 255, 255, 255}, []byte{0xFF})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, Encode([]int32{1, 2, 1, 1, 2, 3}))
	// Fibonacci frequencies: the deepest tree a short input builds, so that
	// codes straddle the emitter's 64-bit stores.
	long := longCodes(4000)
	f.Add([]byte{}, Encode(long))
	var raw []byte
	for _, v := range long {
		raw = binary.LittleEndian.AppendUint32(raw, uint32(v))
	}
	f.Add(raw, []byte{})
	f.Fuzz(func(t *testing.T, symRaw, stream []byte) {
		// Round trip: reinterpret symRaw as int32 symbols.
		data := make([]int32, len(symRaw)/4)
		for i := range data {
			data[i] = int32(uint32(symRaw[4*i]) | uint32(symRaw[4*i+1])<<8 |
				uint32(symRaw[4*i+2])<<16 | uint32(symRaw[4*i+3])<<24)
		}
		enc := Encode(data)
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
		// Corrupt-stream robustness: arbitrary bytes, and truncations /
		// mutations of a valid stream, must error or succeed — never panic.
		if _, err := Decode(stream); err != nil {
			_ = err
		}
		if len(enc) > 0 {
			if _, err := Decode(enc[:len(enc)-1]); err != nil {
				_ = err
			}
			mut := append([]byte(nil), enc...)
			mut[len(mut)/2] ^= 0x5A
			if _, err := Decode(mut); err != nil {
				_ = err
			}
		}
	})
}

func TestDeterministicEncoding(t *testing.T) {
	data := []int32{5, 2, 9, 2, 5, 5, 1}
	a := Encode(data)
	b := Encode(data)
	if string(a) != string(b) {
		t.Fatal("encoding not deterministic")
	}
}
