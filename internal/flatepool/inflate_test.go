package flatepool_test

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/flatepool"
	"repro/internal/index"
	"repro/internal/synth"
	"repro/internal/sz2"
	"repro/internal/sz3"
)

// goldenStreams returns the DEFLATE stream of every committed codec golden
// and of every stream inside every committed container golden.
func goldenStreams(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, pkg := range []string{"sz3", "sz2", "zfp", "core"} {
		names, err := filepath.Glob(filepath.Join("..", pkg, "testdata", "*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if pkg != "core" {
				out = append(out, data)
				continue
			}
			ix, err := index.ReadFrom(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				// A container without a footer: scan its body.
				if ix, err = core.BuildIndex(data); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			for _, s := range ix.Streams {
				stream := data[s.Offset : s.Offset+s.Len]
				if s.Compressor == codec.FlateID {
					stream = stream[len("RAWF")+1:] // the lossless codec's magic and version
				}
				out = append(out, stream)
			}
		}
	}
	if len(out) < 20 {
		t.Fatalf("only %d golden streams found", len(out))
	}
	return out
}

// bitWriter writes a DEFLATE bit stream by hand, for streams compress/flate
// does not write: codes most significant bit first, everything else least
// significant bit first.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

func (w *bitWriter) code(c uint32, n uint) { w.bits(uint64(bits.Reverse32(c)>>(32-n)), n) }

// align pads to the next byte boundary.
func (w *bitWriter) align() {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
}

// fixedLit writes a literal/length symbol in the fixed code of RFC 1951
// §3.2.6.
func (w *bitWriter) fixedLit(s int) {
	switch {
	case s < 144:
		w.code(uint32(0x30+s), 8)
	case s < 256:
		w.code(uint32(0x190+s-144), 9)
	case s < 280:
		w.code(uint32(s-256), 7)
	default:
		w.code(uint32(0xC0+s-280), 8)
	}
}

// match258 writes a 258-byte match at distance 1, 2, 3, 4 or 32 768 in a
// fixed-code block.
func (w *bitWriter) match258(dist int) {
	w.fixedLit(285)
	if dist == 32768 {
		w.code(29, 5)
		w.bits(8191, 13)
		return
	}
	w.code(uint32(dist-1), 5)
}

// edgeStreams are hand-made streams at DEFLATE's limits: 258-byte matches
// at distance 1 and at 32 768, the farthest a match may reach.
func edgeStreams() [][]byte {
	var near bitWriter
	near.bits(1, 1) // final
	near.bits(1, 2) // fixed codes
	near.fixedLit('a')
	near.match258(1)
	near.match258(1)
	near.fixedLit(256)
	near.align()

	var far bitWriter
	history := make([]byte, 32768)
	rand.New(rand.NewSource(9)).Read(history)
	far.bits(0, 1) // not final
	far.bits(0, 2) // stored
	far.align()
	far.bits(32768, 16)
	far.bits(^uint64(32768)&0xFFFF, 16)
	far.out = append(far.out, history...)
	far.bits(1, 1)
	far.bits(1, 2)
	far.match258(32768)
	far.fixedLit(256)
	far.align()
	return [][]byte{near.out, far.out}
}

// writerStreams are compress/flate's output at four levels over payloads
// that alternate incompressible and compressible stretches, so stored,
// fixed and dynamic blocks follow one another in every order.
func writerStreams(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(11))
	var out [][]byte
	// A stretch longer than a BestSpeed block (64 KiB) makes that block
	// stored.
	for _, stretch := range []int{300, 5000, 70000} {
		var payload []byte
		for i := 0; i < min(6, 200000/stretch); i++ {
			noise := make([]byte, stretch)
			rng.Read(noise)
			payload = append(payload, noise...)
			payload = append(payload, bytes.Repeat([]byte{byte(i), 0, 0, 7}, stretch/4)...)
		}
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.BestCompression} {
			var buf bytes.Buffer
			w, err := flate.NewWriter(&buf, level)
			if err != nil {
				t.Fatal(err)
			}
			w.Write(payload)
			w.Close()
			out = append(out, buf.Bytes())
		}
	}
	var empty bytes.Buffer
	w, _ := flate.NewWriter(&empty, flate.BestSpeed)
	w.Close()
	return append(out, empty.Bytes())
}

// heapAllocs is the cumulative number of bytes allocated on the heap.
func heapAllocs(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// FuzzInflate: for any input, Inflate and compress/flate's reader either
// both fail or both return the same bytes, without a panic, and Inflate
// allocates at most a fixed multiple of the input.
func FuzzInflate(f *testing.F) {
	seeds := goldenStreams(f)
	seeds = append(seeds, writerStreams(f)...)
	seeds = append(seeds, edgeStreams()...)
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
		if len(s) > 0 {
			f.Add(s[:len(s)-1])
		}
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := io.ReadAll(flate.NewReader(bytes.NewReader(data)))
		before := heapAllocs(sample)
		p, err := flatepool.Inflate(data)
		allocated := heapAllocs(sample) - before
		// DEFLATE expands at most 1032:1; the output buffer at most
		// doubles past what it holds, and each growth copies.
		if limit := uint64(8*1032*len(data) + 1<<20); allocated > limit {
			t.Errorf("inflating %d bytes allocated %d, over %d", len(data), allocated, limit)
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Inflate err = %v, compress/flate %v", err, wantErr)
		}
		if err != nil {
			return
		}
		defer p.Release()
		if !bytes.Equal(p.Bytes(), want) {
			t.Fatalf("Inflate returned %d bytes, compress/flate %d, and they differ", len(p.Bytes()), len(want))
		}
	})
}

// realStreams are the SZ3 and SZ2 streams of 128³ Nyx and WarpX fields at
// relative bounds 1e-2, 1e-3 and 1e-4.
func realStreams(b *testing.B) (streams [][]byte, names []string) {
	for _, ds := range []synth.Dataset{synth.Nyx, synth.WarpX} {
		f := synth.Generate(ds, 128, 1)
		for _, rel := range []float64{1e-2, 1e-3, 1e-4} {
			eb := f.ValueRange() * rel
			s3, err := sz3.Compress(nil, f, sz3.Options{EB: eb})
			if err != nil {
				b.Fatal(err)
			}
			s2, err := sz2.Compress(nil, f, sz2.Options{EB: eb, BlockSize: sz2.MultiResBlockSize})
			if err != nil {
				b.Fatal(err)
			}
			streams = append(streams, s3, s2)
			names = append(names, fmt.Sprintf("sz3/%v/%g", ds, rel), fmt.Sprintf("sz2/%v/%g", ds, rel))
		}
	}
	return streams, names
}

// BenchmarkInflate inflates the 12 real streams once per op, through
// Inflate and through a reused compress/flate reader into a reused buffer;
// bytes are output bytes.
func BenchmarkInflate(b *testing.B) {
	streams, names := realStreams(b)
	var total int64
	for i, s := range streams {
		p, err := flatepool.Inflate(s)
		if err != nil {
			b.Fatalf("%s: %v", names[i], err)
		}
		total += int64(len(p.Bytes()))
		p.Release()
	}
	b.Logf("%d streams: %s", len(streams), strings.Join(names, ", "))
	b.Run("flatepool", func(b *testing.B) {
		b.SetBytes(total)
		b.ReportAllocs()
		for range b.N {
			for _, s := range streams {
				p, err := flatepool.Inflate(s)
				if err != nil {
					b.Fatal(err)
				}
				p.Release()
			}
		}
	})
	b.Run("compress-flate", func(b *testing.B) {
		var src bytes.Reader
		fr := flate.NewReader(nil)
		var out bytes.Buffer
		b.SetBytes(total)
		b.ReportAllocs()
		for range b.N {
			for _, s := range streams {
				src.Reset(s)
				fr.(flate.Resetter).Reset(&src, nil)
				out.Reset()
				if _, err := out.ReadFrom(fr); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
