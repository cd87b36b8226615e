package core

import (
	"io"
	"runtime/debug"
	"testing"

	"repro/internal/grid"
	"repro/internal/raceflag"
	"repro/internal/roi"
	"repro/internal/synth"
)

// TestDecompressAllocBudget pins the allocation count of one serial full
// decode of the paper's configuration (64³ Nyx, ROI 16/0.5, SZ3MR): index,
// hierarchy, codec scratch and one field per stream. The header-parsing
// decoder this replaced measured 94; decoding from the footer index alone
// needs fewer, and a per-stream allocation creeping into DecodeIndexed or
// PlaceIndexed shows up here before it shows up as allocs_per_op on the
// batch workloads.
func TestDecompressAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	f := synth.Generate(synth.Nyx, 64, 1)
	h, err := roi.Convert(f, roi.Options{BlockB: 16, TopFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompressHierarchy(h, SZ3MROptions(f.ValueRange()*1e-3))
	if err != nil {
		t.Fatal(err)
	}
	// No collection during the measurement: a GC empties the codecs' scratch
	// pools, and refilling them would add a run-dependent allocation or two.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const budget = 27 // measured 24; 28 before the SZ3 arrays were pooled
	if n := testing.AllocsPerRun(10, func() {
		if _, err := DecompressWorkers(c.Blob, 1); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Errorf("DecompressWorkers(blob, 1): %v allocations, budget %d", n, budget)
	}
}

// tacContainer is a TAC container's input: an n³ WarpX field built into
// 2-level AMR, one stream per box coded by comp, and the container itself.
func tacContainer(t *testing.T, n int, comp Compressor) (*grid.Hierarchy, Options, []byte, int) {
	t.Helper()
	f := synth.Generate(synth.WarpX, n, 1)
	h, err := grid.BuildAMR(f, 16, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{EB: f.ValueRange() * 1e-3, Compressor: comp, Arrangement: ArrangeTAC, Workers: 1}
	c, err := CompressHierarchy(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := loadIndex(c.Blob)
	if err != nil {
		t.Fatal(err)
	}
	return h, opt, c.Blob, len(ix.Streams)
}

// TestTACSZ2AllocBudget pins the allocations of a streaming compress and a
// full decode of a TAC SZ2 hierarchy (64³ WarpX, 2-level AMR, 22 streams),
// serial and on two workers. They are per call, not per stream: the boxes
// are views of one slab per level, each stream is deflated into the buffer
// of one already written, and each box decodes into the field of one
// already placed. What is left is the container's own records, the
// hierarchy, and a buffer or field for each stream in flight at once: the
// write side's worker window, hence its higher two-worker count, and for
// the decode one scratch field per worker, so a decode on two workers
// makes only a few more allocations than a serial one.
func TestTACSZ2AllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	h, opt, blob, streams := tacContainer(t, 64, SZ2)
	if streams < 20 {
		t.Fatalf("%v streams: the hierarchy no longer exercises many small boxes", streams)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Measured: compress 16 / 38 allocations, decode 22 / 24, serial / two
	// workers. The budgets are those plus < 10 %.
	decodes := make(map[int]float64)
	for _, tc := range []struct {
		workers          int
		compress, decode float64
	}{
		{1, 17, 24},
		{2, 41, 26},
	} {
		opt.Workers = tc.workers
		p, err := Prepare(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() {
			if _, err := p.CompressTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		}); n > tc.compress {
			t.Errorf("workers=%d: CompressTo: %v allocations for %d streams, budget %v", tc.workers, n, streams, tc.compress)
		}
		n := testing.AllocsPerRun(10, func() {
			if _, err := DecompressWorkers(blob, tc.workers); err != nil {
				t.Fatal(err)
			}
		})
		if n > tc.decode {
			t.Errorf("workers=%d: DecompressWorkers: %v allocations for %d streams, budget %v", tc.workers, n, streams, tc.decode)
		}
		decodes[tc.workers] = n
	}
	// The second worker costs its goroutine and its scratch field, not a
	// window of decoded streams.
	if d := decodes[2] - decodes[1]; d > 4 {
		t.Errorf("DecompressWorkers: %v allocations on two workers, %v serially: %v more, want at most 4", decodes[2], decodes[1], d)
	}
	// The linear SZ3MR writer on a 64³ Nyx AMR hierarchy, serial: one merged
	// stream per level, so the writer's own header, block-list and footer
	// records are a visible share of the count. The budget is the count the
	// writer made with its own record encoders; sharing the index package's
	// takes it to 32.
	lh := amrHierarchy(t, 64, 1)
	lopt := SZ3MROptions(lh.Levels[0].Data.ValueRange() * 1e-3)
	lopt.Workers = 1
	p, err := Prepare(lh, lopt)
	if err != nil {
		t.Fatal(err)
	}
	const linearBudget = 35
	if n := testing.AllocsPerRun(10, func() {
		if _, err := p.CompressTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); n > linearBudget {
		t.Errorf("linear SZ3MR: CompressTo: %v allocations, budget %d", n, linearBudget)
	}
}

// TestTACAllocsFlatInStreams checks that a TAC container's allocations do
// not grow with its stream count, for SZ2 and for SZ3 boxes: Prepare plus
// CompressTo, and a full decode, on two workers, of the 64³ hierarchy and a
// 128³ one with about three times the streams may differ by at most one
// allocation per extra stream. Per-stream costs (a box field, a deflate
// buffer, a decoded field, a codec's working arrays per stream) would show
// as two or more; SZ3 boxes cost about five each before its arrays were
// pooled.
func TestTACAllocsFlatInStreams(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	type counts struct{ streams, write, decode float64 }
	measure := func(t *testing.T, n int, comp Compressor) counts {
		h, opt, blob, streams := tacContainer(t, n, comp)
		opt.Workers = 2
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return counts{
			streams: float64(streams),
			write: testing.AllocsPerRun(5, func() {
				p, err := Prepare(h, opt)
				if err == nil {
					_, err = p.CompressTo(io.Discard)
				}
				if err != nil {
					t.Fatal(err)
				}
			}),
			decode: testing.AllocsPerRun(5, func() {
				if _, err := DecompressWorkers(blob, opt.Workers); err != nil {
					t.Fatal(err)
				}
			}),
		}
	}
	for _, comp := range []Compressor{SZ2, SZ3} {
		t.Run(comp.String(), func(t *testing.T) {
			small, large := measure(t, 64, comp), measure(t, 128, comp)
			extra := large.streams - small.streams
			if large.streams < 2*small.streams {
				t.Fatalf("%v and %v streams: the larger hierarchy no longer has many more", small.streams, large.streams)
			}
			t.Logf("%v streams: write %v, decode %v allocations; %v streams: write %v, decode %v",
				small.streams, small.write, small.decode, large.streams, large.write, large.decode)
			if d := large.write - small.write; d > extra {
				t.Errorf("Prepare+CompressTo: %v allocations for %v streams, %v for %v: %.2f per extra stream", large.write, large.streams, small.write, small.streams, d/extra)
			}
			if d := large.decode - small.decode; d > extra {
				t.Errorf("DecompressWorkers: %v allocations for %v streams, %v for %v: %.2f per extra stream", large.decode, large.streams, small.decode, small.streams, d/extra)
			}
		})
	}
}
