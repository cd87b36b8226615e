package huffman

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// bitWriter is the reference bit writer: it appends bits one at a time,
// most significant first, after what buf already holds.
type bitWriter struct {
	buf  []byte
	bits int // bits written
}

// WriteBits appends the low n bits of v, most significant first.
func (w *bitWriter) WriteBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		if w.bits%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		w.buf[len(w.buf)-1] |= byte(v>>i&1) << (7 - w.bits%8)
		w.bits++
	}
}

// Finish returns the stream, its last byte zero-padded.
func (w *bitWriter) Finish() []byte { return w.buf }

// refEmit is emit as it was: one WriteBits call per symbol, the dense
// lookup indexed by symbol − minS, the sparse one by binary search. It is
// the reference the register emitter is held to.
func refEmit(c *coder, bw *bitWriter, data []int32) {
	if c.dense {
		minS := int64(c.minS)
		for _, v := range data {
			e := c.lookup[int64(v)-minS]
			bw.WriteBits(e>>lenBits, uint(e&lenMask))
		}
		return
	}
	for _, v := range data {
		e := c.lookup[c.index(v)]
		bw.WriteBits(e>>lenBits, uint(e&lenMask))
	}
}

// refEncode is Encode with refEmit writing the bit stream.
func refEncode(data []int32) []byte {
	if len(data) == 0 {
		return binary.AppendUvarint(binary.AppendUvarint(nil, 0), 0)
	}
	c := new(scratch).coder(data)
	out := binary.AppendUvarint(nil, uint64(len(data)))
	bw := &bitWriter{buf: c.appendDict(out)}
	refEmit(c, bw, data)
	return bw.Finish()
}

// longCodes returns a stream of n symbols with Fibonacci frequencies, the
// deepest Huffman tree n symbols can build (about 1.44·log₂ n bits).
func longCodes(n int) []int32 {
	var data []int32
	f1, f2 := 1, 1
	for s := int32(0); len(data) < n; s++ {
		for i := 0; i < f1 && len(data) < n; i++ {
			data = append(data, s)
		}
		f1, f2 = f2, f1+f2
	}
	rand.New(rand.NewSource(3)).Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	return data
}

// emitCorpus covers the lookup's two shapes and the register's edges:
// dense streams, sparse ones (span above denseSpanLimit), codes up to
// maxCodeLen long that straddle a 64-bit store, and 0-, 1- and 2-symbol
// streams.
func emitCorpus() map[string][]int32 {
	rng := rand.New(rand.NewSource(11))
	gauss := make([]int32, 100003)
	for i := range gauss {
		gauss[i] = 32768 + int32(rng.NormFloat64()*4)
	}
	sparse := make([]int32, 50001)
	for i := range sparse {
		sparse[i] = int32(rng.Intn(40)) * (denseSpanLimit / 7)
		if i%3 == 0 {
			sparse[i] = -sparse[i]
		}
	}
	sparseLong := longCodes(40000)
	for i := range sparseLong {
		sparseLong[i] *= denseSpanLimit / 16
	}
	wide := make([]int32, 30000)
	for i := range wide {
		wide[i] = rng.Int31() - rng.Int31()
	}
	oneSym := make([]int32, 1000)
	for i := range oneSym {
		oneSym[i] = -4
	}
	return map[string][]int32{
		"empty":       {},
		"one":         {9},
		"one-symbol":  oneSym,
		"two":         {1, 2},
		"two-symbol":  {5, 5, 5, -5, 5, -5, -5, 5, 5},
		"dense-gauss": gauss,
		"dense-long":  longCodes(300000),
		"sparse":      sparse,
		"sparse-long": sparseLong,
		"wide":        wide,
	}
}

func TestEmitMatchesReference(t *testing.T) {
	for name, data := range emitCorpus() {
		t.Run(name, func(t *testing.T) {
			if name == "dense-long" || name == "sparse-long" {
				c := new(scratch).coder(data)
				if want := name == "dense-long"; c.dense != want {
					t.Fatalf("dense lookup %v, want %v", c.dense, want)
				}
			}
			got, want := Encode(data), refEncode(data)
			if !bytes.Equal(got, want) {
				t.Fatalf("Encode: %d bytes, reference %d; first difference at %s",
					len(got), len(want), firstDiff(got, want))
			}
			// Every prefix length ends the stream at a different bit of
			// the register.
			for n := 0; n < min(len(data), 70); n++ {
				if got, want := Encode(data[:n]), refEncode(data[:n]); !bytes.Equal(got, want) {
					t.Fatalf("prefix %d: first difference at byte %s", n, firstDiff(got, want))
				}
			}
		})
	}
}

// TestEmitMaxCodeLen holds the register emitter to the reference on codes
// of every length up to maxCodeLen. No stream short of ~10¹¹ symbols grows
// a 57-bit Huffman code, so the coder is built by hand: one canonical code
// of each length 1…56 and two of 57, a complete code, looked up densely and
// by rank.
func TestEmitMaxCodeLen(t *testing.T) {
	k := maxCodeLen + 1
	lens := make([]int, k)
	for i := range lens {
		lens[i] = min(i+1, maxCodeLen)
	}
	codes := make([]uint64, k)
	canonicalCodes(codes, lens)
	rng := rand.New(rand.NewSource(5))
	for _, dense := range []bool{true, false} {
		c := &coder{dense: dense, lookup: make([]uint64, k), symbols: make([]int32, k)}
		for i, l := range lens {
			c.lookup[i] = codes[i]<<lenBits | uint64(l)
			c.symbols[i] = int32(i)*(denseSpanLimit/8) - denseSpanLimit
		}
		for trial := 0; trial < 200; trial++ {
			data := make([]int32, rng.Intn(300))
			c.totalBits = 0
			for i := range data {
				// Long codes often, so that most stores split one.
				j := k - 1 - rng.Intn(12)
				if rng.Intn(3) == 0 {
					j = rng.Intn(k)
				}
				data[i] = int32(j)
				if !dense {
					data[i] = c.symbols[j]
				}
				c.totalBits += lens[j]
			}
			bw := new(bitWriter)
			refEmit(c, bw, data)
			want := bw.Finish()
			got := c.emit(make([]byte, 0, len(want)), c.keys(data, make([]int32, len(data))))
			if !bytes.Equal(got, want) {
				t.Fatalf("dense %v, %d symbols: first difference at byte %s", dense, len(data), firstDiff(got, want))
			}
		}
	}
}

// TestEmitAfterPrefix: AppendEncode writes the stream after whatever dst
// holds, in place.
func TestEmitAfterPrefix(t *testing.T) {
	data := longCodes(5000)
	for pre := 0; pre < 9; pre++ {
		dst := bytes.Repeat([]byte{0xA5}, pre)
		got := AppendEncode(dst, data)
		if want := append(bytes.Repeat([]byte{0xA5}, pre), refEncode(data)...); !bytes.Equal(got, want) {
			t.Fatalf("prefix of %d bytes: first difference at %s", pre, firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []byte) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprint(i)
		}
	}
	return fmt.Sprintf("%d (length)", min(len(a), len(b)))
}
