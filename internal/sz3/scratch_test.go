package sz3

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/field"
	"repro/internal/synth"
)

// poisoned returns a scratch whose arrays have room for an n-sample stream
// and hold NaN and garbage, as a pooled scratch may after coding some other
// stream.
func poisoned(n int) *scratch {
	s := &scratch{
		recon:    make([]float64, n),
		codes:    make([]int32, n+1024),
		outliers: make([]float64, n/4),
		ebTable:  make([]float64, 64),
		entropy:  make([]byte, 8*n),
		payload:  make([]byte, 16*n),
	}
	for i := range s.recon {
		s.recon[i] = math.NaN()
	}
	for i := range s.codes {
		s.codes[i] = int32(i*2654435761) | 1 // never 0: no stray escapes
	}
	for i := range s.outliers {
		s.outliers[i] = math.Inf(1 - 2*(i&1))
	}
	for i := range s.ebTable {
		s.ebTable[i] = math.NaN()
	}
	for i := range s.entropy {
		s.entropy[i] = byte(i) ^ 0xA5
	}
	for i := range s.payload {
		s.payload[i] = byte(i) ^ 0x5A
	}
	return s
}

// poisonPool empties the pool, as far as this goroutine reaches, and puts
// a poisoned scratch in it for the next Get to return: the last scratch put
// is the first one got on the same P.
func poisonPool(n int) {
	for i := 0; i < 1000 && getScratch().bytes() > 0; i++ {
	}
	pool.Put(poisoned(n))
}

// nanField returns a field of n NaN samples shaped 1×1×n, for a decode to
// reuse and reshape.
func nanField(n int) *field.Field {
	g := field.New(1, 1, n)
	for i := range g.Data {
		g.Data[i] = math.NaN()
	}
	return g
}

// TestPooledScratch: the pooled arrays are never cleared, so what a scratch
// held before must not reach a stream or a reconstruction.
//
// Stage "poisoned": every golden re-encodes byte-identical, and decodes
// bit-identical into fresh and reused destinations, on a scratch full of
// NaN and garbage — called directly, and put in the pool first.
//
// Stage "shared": eight goroutines code distinct fields through the pool
// at once, and each result equals the one coded serially.
func TestPooledScratch(t *testing.T) {
	// A collection empties the pool, which would let the poisoned scratch
	// go unused.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t.Run("poisoned", func(t *testing.T) {
		f, eb := goldenField()
		n := len(f.Data)
		for _, tc := range []struct {
			name string
			opt  Options
		}{
			{"linear", Options{EB: eb, Interp: Linear}},
			{"cubic-adaptive", Options{EB: eb, Interp: Cubic, LevelEB: AdaptiveLevelEB(eb, 2.25, 8)}},
		} {
			want, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("golden-%s.sz3", tc.name)))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := new(scratch).decompress(nil, want)
			if err != nil {
				t.Fatal(err)
			}
			compress := map[string]func() ([]byte, error){
				"scratch": func() ([]byte, error) { return poisoned(n).compress(nil, f, tc.opt) },
				"pool": func() ([]byte, error) {
					poisonPool(n)
					return Compress(nil, f, tc.opt)
				},
			}
			for how, fn := range compress {
				blob, err := fn()
				if err != nil {
					t.Fatalf("%s: %s: %v", tc.name, how, err)
				}
				if !bytes.Equal(blob, want) {
					t.Errorf("%s: %s: %d-byte stream differs from the %d-byte golden", tc.name, how, len(blob), len(want))
				}
			}
			decompress := map[string]func(dst *field.Field) (*field.Field, error){
				"scratch": func(dst *field.Field) (*field.Field, error) { return poisoned(n).decompress(dst, want) },
				"pool": func(dst *field.Field) (*field.Field, error) {
					poisonPool(n)
					return Decompress(dst, want)
				},
			}
			for how, fn := range decompress {
				for _, dst := range []*field.Field{nil, nanField(n), nanField(2 * n)} {
					g, err := fn(dst)
					if err != nil {
						t.Fatalf("%s: %s: %v", tc.name, how, err)
					}
					if !sameBits(g, ref) {
						t.Errorf("%s: %s, destination %v: decoded bits differ", tc.name, how, dst != nil)
					}
				}
			}
		}
	})

	t.Run("shared", func(t *testing.T) {
		const workers, rounds = 8, 4
		type stream struct {
			f    *field.Field
			opt  Options
			blob []byte
			dec  *field.Field
		}
		streams := make([]stream, workers)
		for i := range streams {
			f := synth.GenerateDims(synth.Nyx, 9+i, 13-i, 17+3*i, int64(i))
			eb := f.ValueRange() * 1e-3
			opt := Options{EB: eb, Interp: Interpolant(i % 2)}
			if i%3 == 0 {
				opt.LevelEB = AdaptiveLevelEB(eb, 2.25, 8)
			}
			blob, err := new(scratch).compress(nil, f, opt)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := new(scratch).decompress(nil, blob)
			if err != nil {
				t.Fatal(err)
			}
			streams[i] = stream{f, opt, blob, dec}
		}
		var wg sync.WaitGroup
		for i := range streams {
			wg.Add(1)
			go func(st stream) {
				defer wg.Done()
				reused := nanField(1)
				for r := 0; r < rounds; r++ {
					blob, err := Compress(nil, st.f, st.opt)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(blob, st.blob) {
						t.Errorf("stream %dx%dx%d, round %d: concurrent stream differs from the serial one", st.f.Nx, st.f.Ny, st.f.Nz, r)
					}
					for _, dst := range []*field.Field{nil, reused} {
						g, err := Decompress(dst, blob)
						if err != nil {
							t.Error(err)
							return
						}
						if !sameBits(g, st.dec) {
							t.Errorf("stream %dx%dx%d, round %d: decoded bits differ from the serial decode", st.f.Nx, st.f.Ny, st.f.Nz, r)
						}
					}
				}
			}(streams[i])
		}
		wg.Wait()
	})
}

// TestPooledScratchIsBounded: a scratch that coded a stream larger than the
// pool keeps is dropped, not pooled.
func TestPooledScratchIsBounded(t *testing.T) {
	big := new(scratch)
	big.recon = make([]float64, maxPooledBytes/8+1)
	putScratch(big)
	for i := 0; i < 100; i++ {
		if s := getScratch(); s == big {
			t.Fatal("an oversized scratch came back from the pool")
		}
	}
}
