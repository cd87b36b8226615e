package huffman

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/raceflag"
)

// scratchCorpus returns streams that leave different state behind in a
// scratch: a wide alphabet whose longest codes exceed the table width (the
// full tableBits table and the decodeLong path), a two-symbol stream short
// enough for a one-bit table, a range too wide for the dense histogram, and
// the degenerate shapes.
func scratchCorpus() []struct {
	name string
	data []int32
} {
	rng := rand.New(rand.NewSource(8))
	wide := make([]int32, 1<<15)
	for i := range wide {
		wide[i] = 32768 + int32(rng.NormFloat64()*300)
	}
	two := make([]int32, 100)
	for i := range two {
		two[i] = 7 + int32(rng.Intn(2))
	}
	spread := make([]int32, 3000)
	for i := range spread {
		spread[i] = int32(rng.Intn(40)-20) * 100003
	}
	return []struct {
		name string
		data []int32
	}{
		{"wide", wide}, {"two", two}, {"spread", spread}, {"wide again", wide},
		{"one", []int32{-9}}, {"empty", nil}, {"two again", two},
	}
}

// TestScratchReuseMatchesFresh codes and decodes a sequence of streams
// through one scratch, as a goroutine reusing a pooled one does, and holds
// each to what a fresh scratch produces: nothing one stream leaves in the
// histogram, the tree, the lookup or the decode table may reach the next.
func TestScratchReuseMatchesFresh(t *testing.T) {
	s := new(scratch)
	for _, tc := range scratchCorpus() {
		want := new(scratch).appendEncode(nil, tc.data)
		got := s.appendEncode(nil, tc.data)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: a reused scratch encodes differently from a fresh one", tc.name)
		}
		// Appending behind a prefix writes the same bytes after it.
		if p := s.appendEncode([]byte("prefix"), tc.data); !bytes.Equal(p, append([]byte("prefix"), want...)) {
			t.Fatalf("%s: appended encoding differs", tc.name)
		}
		dec, err := s.appendDecode(nil, got)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.name == "wide" && (s.t.tb != tableBits || s.t.maxLen <= tableBits) {
			t.Fatalf("wide stream built a %d-bit table for codes up to %d bits: the long-code path is not exercised", s.t.tb, s.t.maxLen)
		}
		if tc.name == "two" && s.t.tb != 1 {
			t.Fatalf("two-symbol stream built a %d-bit table", s.t.tb)
		}
		fresh, err := new(scratch).appendDecode(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != len(tc.data) || len(fresh) != len(tc.data) {
			t.Fatalf("%s: decoded %d and %d symbols of %d", tc.name, len(dec), len(fresh), len(tc.data))
		}
		for i := range tc.data {
			if dec[i] != tc.data[i] || fresh[i] != tc.data[i] {
				t.Fatalf("%s: symbol %d = %d (reused), %d (fresh), want %d", tc.name, i, dec[i], fresh[i], tc.data[i])
			}
		}
		// Appending behind a prefix leaves the prefix alone.
		p, err := s.appendDecode([]int32{1, 2, 3}, got)
		if err != nil || len(p) != 3+len(tc.data) || p[0] != 1 || p[2] != 3 {
			t.Fatalf("%s: appended decode = %d symbols, %v", tc.name, len(p), err)
		}
	}
}

// TestConcurrentPooledCoding codes and decodes mixed streams from
// GOMAXPROCS×4 goroutines through the pool: run under -race, a scratch
// shared by two calls at once, or returned to the pool while in use, shows
// up here.
func TestConcurrentPooledCoding(t *testing.T) {
	corpus := scratchCorpus()
	want := make([][]byte, len(corpus))
	for i, tc := range corpus {
		want[i] = Encode(tc.data)
	}
	g := runtime.GOMAXPROCS(0) * 4
	rounds := 40
	if testing.Short() || raceflag.Enabled {
		rounds = 8
	}
	var wg sync.WaitGroup
	errs := make(chan error, g)
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(corpus)
				data := corpus[i].data
				enc := AppendEncode(nil, data)
				if !bytes.Equal(enc, want[i]) {
					errs <- fmt.Errorf("goroutine %d: %s encoded differently", w, corpus[i].name)
					return
				}
				dec, err := Decode(enc)
				if err != nil {
					errs <- err
					return
				}
				for j := range data {
					if dec[j] != data[j] {
						errs <- fmt.Errorf("goroutine %d: %s symbol %d = %d, want %d", w, corpus[i].name, j, dec[j], data[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDecodeAllocBudget holds a steady-state Decode to its output.
func TestDecodeAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	// No collection during the measurement: a GC empties the pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range scratchCorpus() {
		enc := Encode(tc.data)
		want := 1.0
		if len(tc.data) == 0 {
			want = 0
		}
		if n := testing.AllocsPerRun(10, func() {
			if _, err := Decode(enc); err != nil {
				t.Fatal(err)
			}
		}); n > want {
			t.Errorf("%s: Decode allocates %v times, budget %v (the output)", tc.name, n, want)
		}
	}
}

// TestOversizedScratchIsNotPooled: a scratch a wide stream grew past
// maxPooledLen is dropped, not kept in the pool.
func TestOversizedScratchIsNotPooled(t *testing.T) {
	big := new(scratch)
	big.counts = make([]uint64, maxPooledLen+1)
	putScratch(big)
	for i := 0; i < 100; i++ {
		if getScratch() == big {
			t.Fatal("an oversized scratch came back from the pool")
		}
	}
}
