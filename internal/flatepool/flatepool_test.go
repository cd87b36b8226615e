package flatepool

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/raceflag"
)

// freshDeflate is the reference: a brand-new writer per call.
func freshDeflate(t *testing.T, payload []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	fw, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestByteIdenticalToFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 100, 65536, 1 << 18} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(rng.Intn(7)) // compressible
		}
		// Repeat so later calls exercise pooled (previously used) writers.
		for trial := 0; trial < 3; trial++ {
			got, err := Deflate(nil, payload)
			if err != nil {
				t.Fatal(err)
			}
			if want := freshDeflate(t, payload); !bytes.Equal(got, want) {
				t.Fatalf("n=%d trial %d: pooled output differs from fresh writer", n, trial)
			}
			fr := flate.NewReader(bytes.NewReader(got))
			round, err := io.ReadAll(fr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(round, payload) {
				t.Fatalf("n=%d: round trip mismatch", n)
			}
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	payload := bytes.Repeat([]byte("abcabcabd"), 4096)
	want, err := Deflate(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := Deflate(nil, payload)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("concurrent deflate diverged (err=%v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// freshInflate is the reference: a brand-new reader per call.
func freshInflate(data []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(data)))
}

func TestInflateIdenticalToFreshReader(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Sizes out of order, so a pooled buffer meets payloads both larger and
	// smaller than its last one.
	for _, n := range []int{1 << 18, 0, 100, 65536, 1, 1 << 16} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(rng.Intn(7))
		}
		blob := freshDeflate(t, payload)
		for trial := 0; trial < 3; trial++ {
			p, err := Inflate(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p.Bytes(), payload) {
				t.Fatalf("n=%d trial %d: pooled inflate differs from the payload", n, trial)
			}
			p.Release()
		}
		// Damaged streams have the same outcome — an error, or the same
		// bytes — and a decoder that has failed goes back to the pool fit
		// for the next stream. Error texts differ and need not match: every
		// decode error is classified as corrupt by the container decoder.
		for _, bad := range [][]byte{blob[:len(blob)/2], append([]byte{0xFF}, blob...)} {
			want, wantErr := freshInflate(bad)
			p, err := Inflate(bad)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("n=%d: pooled inflate err = %v, fresh reader %v", n, err, wantErr)
			}
			if err == nil {
				if !bytes.Equal(p.Bytes(), want) {
					t.Fatalf("n=%d: pooled inflate of a damaged stream differs from a fresh reader", n)
				}
				p.Release()
			}
		}
	}
}

func TestInflateConcurrentUse(t *testing.T) {
	payloads := [][]byte{
		bytes.Repeat([]byte("abcabcabd"), 4096),
		bytes.Repeat([]byte("xyzzy"), 100),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		payload := payloads[g%2]
		blob, err := Deflate(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p, err := Inflate(blob)
				if err != nil {
					t.Errorf("concurrent inflate: %v", err)
					return
				}
				ok := bytes.Equal(p.Bytes(), payload)
				p.Release()
				if !ok {
					t.Error("concurrent inflate diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInflateAllocBudget: in steady state the decoder, its tables and the
// output buffer all come from the pool, so an Inflate allocates nothing.
func TestInflateAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 1<<18)
	for i := range payload {
		payload[i] = byte(rng.Intn(7))
	}
	blob, err := Deflate(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	// No collection during the measurement: a GC empties the pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pooled := testing.AllocsPerRun(10, func() {
		p, err := Inflate(blob)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	})
	if pooled != 0 {
		t.Fatalf("steady-state inflate allocates %v times, want 0", pooled)
	}
}

// TestReleaseDropsLargeBuffer: an output buffer above maxPooledBytes is not
// kept by the pool; one at or below it is.
func TestReleaseDropsLargeBuffer(t *testing.T) {
	p := new(Inflated)
	p.d.out = make([]byte, maxPooledBytes+1)
	p.Release()
	if p.d.out != nil {
		t.Fatal("a buffer above maxPooledBytes was pooled")
	}
	p = new(Inflated)
	p.d.out = make([]byte, maxPooledBytes)
	p.Release()
	if p.d.out == nil {
		t.Fatal("a buffer of maxPooledBytes was dropped")
	}
}
