package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/index"
	"repro/internal/synth"
)

// writeConfigs spans every arrangement and compressor the container format
// carries, the full matrix the streaming writer must reproduce exactly.
func writeConfigs(eb float64) map[string]Options {
	return map[string]Options{
		"sz3mr":    SZ3MROptions(eb),
		"baseline": BaselineSZ3Options(eb),
		"stack":    AMRICSZ3Options(eb),
		"tac":      TACSZ3Options(eb),
		"zorder":   {EB: eb, Compressor: SZ3, Arrangement: ArrangeZOrder1D},
		"sz2":      AMRICSZ2Options(eb),
		"tac-sz2":  {EB: eb, Compressor: SZ2, Arrangement: ArrangeTAC},
		"zfp":      MRZFPOptions(eb),
		"tac-zfp":  {EB: eb, Compressor: ZFP, Arrangement: ArrangeTAC},
		"flate":    {EB: eb, Compressor: Flate},
		"mixed": {EB: eb, Compressor: SZ3, Pad: true, AdaptiveEB: true,
			LevelCodecs: map[int]Compressor{1: Flate}},
		"tac-mixed": {EB: eb, Compressor: SZ3, Arrangement: ArrangeTAC,
			LevelCodecs: map[int]Compressor{0: ZFP, 1: Flate}},
	}
}

// TestCompressToMatchesCompress locks worker-count invariance: for every
// arrangement and backend, CompressTo at any Workers value — negative, 0
// (all cores), serial, and counts above and below the stream count — writes
// exactly the bytes, size and per-level payloads of the serial Compress.
func TestCompressToMatchesCompress(t *testing.T) {
	h, eb := goldenHierarchy(t)
	for name, opt := range writeConfigs(eb) {
		t.Run(name, func(t *testing.T) {
			opt.Workers = 1
			p, err := Prepare(h, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Compress()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{-1, 0, 1, 2, 7} {
				wopt := opt
				wopt.Workers = workers
				wp, err := Prepare(h, wopt)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				res, err := wp.CompressTo(&buf)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !bytes.Equal(buf.Bytes(), want.Blob) {
					t.Fatalf("workers=%d: container differs from the serial one (%d vs %d bytes)",
						workers, buf.Len(), len(want.Blob))
				}
				if res.Bytes != int64(len(want.Blob)) {
					t.Fatalf("workers=%d: WriteResult.Bytes = %d, container is %d", workers, res.Bytes, len(want.Blob))
				}
				for li, lb := range res.LevelBytes {
					if lb != want.LevelBytes[li] {
						t.Fatalf("workers=%d: LevelBytes[%d] = %d, want %d", workers, li, lb, want.LevelBytes[li])
					}
				}
			}
		})
	}
}

// TestCompressBlobCapacity checks that Compress hands out its blob without the
// spare capacity the in-memory buffer gathered while doubling: callers keep
// Blob, so the spare would stay allocated as long as they do.
func TestCompressBlobCapacity(t *testing.T) {
	// 128³: the container outgrows one 64 KiB write, so the buffer doubles.
	f := synth.Generate(synth.WarpX, 128, 1)
	h, err := grid.BuildAMR(f, 16, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompressHierarchy(h, Options{EB: f.ValueRange() * 1e-3, Compressor: SZ2, Arrangement: ArrangeTAC, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.Blob); cap(c.Blob)-n > n/8 {
		t.Errorf("Blob is %d bytes with capacity %d", n, cap(c.Blob))
	}
}

// TestNegativeWorkersTerminate is the regression test for a negative Workers
// value, which once made the streaming writer retry an empty batch forever:
// both directions must treat it as serial, within a deadline, and produce
// what Workers 1 produces.
func TestNegativeWorkersTerminate(t *testing.T) {
	h, eb := goldenHierarchy(t)
	opt := TACSZ3Options(eb)
	opt.Workers = 1
	serial, err := CompressHierarchy(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecompressWorkers(serial.Blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		opt.Workers = -1
		p, err := Prepare(h, opt)
		if err != nil {
			done <- err
			return
		}
		var buf bytes.Buffer
		if _, err := p.CompressTo(&buf); err != nil {
			done <- err
			return
		}
		if !bytes.Equal(buf.Bytes(), serial.Blob) {
			done <- errors.New("Workers -1 container differs from Workers 1")
			return
		}
		got, err := DecompressWorkers(serial.Blob, -1)
		if err != nil {
			done <- err
			return
		}
		for li := range want.Levels {
			if !got.Levels[li].Data.Equal(want.Levels[li].Data) {
				done <- fmt.Errorf("level %d: Workers -1 decode differs from Workers 1", li)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("CompressTo / DecompressWorkers with Workers -1 did not return within 30 s")
	}
}

// TestCompressToMatchesGoldenFixtures locks the streaming writer against
// the committed fixtures directly: it must reproduce the v3 fixture's body
// byte-for-byte, and that body (version byte rewritten) must be the
// committed v2 fixture — the same identities the monolithic path is held
// to. (Footers are compared semantically in TestGoldenContainer: the
// writer now emits the checked footer version over the unchanged body.)
func TestCompressToMatchesGoldenFixtures(t *testing.T) {
	h, eb := goldenHierarchy(t)
	p, err := Prepare(h, TACSZ3Options(eb))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.CompressTo(&buf); err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join("testdata", "golden-tac-sz3-v3.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	fixtureBody, ok := index.Locate(v3)
	if !ok {
		t.Fatal("v3 fixture has no index footer")
	}
	gotBody, ok := index.Locate(buf.Bytes())
	if !ok {
		t.Fatal("streamed container has no index footer")
	}
	if !bytes.Equal(buf.Bytes()[:gotBody], v3[:fixtureBody]) {
		t.Fatalf("streamed body diverged from the v3 golden fixture (%d vs %d bytes)", gotBody, fixtureBody)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "golden-tac-sz3.mrc"))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := index.Locate(buf.Bytes())
	if !ok {
		t.Fatal("streamed container has no index footer")
	}
	asV2 := append([]byte(nil), buf.Bytes()[:body]...)
	asV2[4] = 2
	if !bytes.Equal(asV2, v2) {
		t.Fatal("streamed body is not the v2 fixture plus a footer")
	}
}

// TestCompressToStreamedContainerDecodes round-trips a container streamed
// to a writer through the decoder.
func TestCompressToStreamedContainerDecodes(t *testing.T) {
	h, eb := goldenHierarchy(t)
	p, err := Prepare(h, SZ3MROptions(eb))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.CompressTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompressHierarchy(h, SZ3MROptions(eb))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decompress(c.Blob)
	if err != nil {
		t.Fatal(err)
	}
	for li := range want.Levels {
		if !got.Levels[li].Data.Equal(want.Levels[li].Data) {
			t.Fatalf("level %d differs between streamed and monolithic round trips", li)
		}
	}
}

// failAfter errors once n bytes have been accepted.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// TestCompressToPropagatesWriteErrors proves a failing destination surfaces
// the sink's error instead of a panic or silent truncation.
func TestCompressToPropagatesWriteErrors(t *testing.T) {
	h, eb := goldenHierarchy(t)
	p, err := Prepare(h, SZ3MROptions(eb))
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compress()
	if err != nil {
		t.Fatal(err)
	}
	sinkErr := errors.New("sink full")
	// Fail in the header, mid-body, and inside the footer.
	for _, limit := range []int{0, 3, 100, len(c.Blob) - 4} {
		_, err := p.CompressTo(&failAfter{n: limit, err: sinkErr})
		if !errors.Is(err, sinkErr) {
			t.Fatalf("limit %d: error %v, want the sink's", limit, err)
		}
	}
}

// TestCompressToStopsAfterFailedWrite checks that a destination failing at
// its first flush ends the run at the next stream boundary: the workers may
// have run ahead by at most one window (8 streams per worker) past the
// stream that was being written, never through the whole container.
func TestCompressToStopsAfterFailedWrite(t *testing.T) {
	f := synth.Generate(synth.WarpX, 64, 1)
	h, err := grid.BuildAMR(f, 8, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	sinkErr := errors.New("sink full")
	for _, workers := range []int{1, 2} {
		p, err := Prepare(h, Options{EB: 1, Compressor: SZ2, Arrangement: ArrangeTAC, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		window := 8 * workers
		if n := len(p.jobs()); n < 3*window {
			t.Fatalf("%d streams: too few to tell a stopped writer from a finished one", n)
		}
		var calls atomic.Int64
		// Each stream is larger than the writer's buffer, so the first one
		// already reaches the failing destination.
		stream := make([]byte, 1<<17)
		_, err = p.compressTo(&failAfter{n: 0, err: sinkErr}, func(compressJob, []byte) ([]byte, error) {
			calls.Add(1)
			return stream, nil
		})
		if !errors.Is(err, sinkErr) {
			t.Fatalf("workers=%d: error %v, want the sink's", workers, err)
		}
		if c := calls.Load(); c > int64(1+window) {
			t.Fatalf("workers=%d: %d streams compressed after a failure at the first, window is %d", workers, c, window)
		}
	}
}

func init() {
	// Guard against accidentally quadratic fixture configs.
	if len(writeConfigs(1)) < 9 {
		panic(fmt.Sprintf("writeConfigs shrank: %d", len(writeConfigs(1))))
	}
}
