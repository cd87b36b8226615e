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
	const budget = 35 // measured 29
	if n := testing.AllocsPerRun(10, func() {
		if _, err := DecompressWorkers(c.Blob, 1); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Errorf("DecompressWorkers(blob, 1): %v allocations, budget %d", n, budget)
	}
}

// TestTACSZ2AllocBudget pins the allocations per stream of a streaming
// compress and a full decode of a TAC SZ2 hierarchy (64³ WarpX, 2-level AMR,
// one stream per box), serial and on two workers. SZ2 and the Huffman coder
// take their working arrays from pools, so a box stream costs its
// extraction, its compressed bytes, its decoded field and the flate
// writer's own allocations — 38 and 22 per stream respectively before the
// pools, 11 and 6.3 with them. The worker window adds a constant per run,
// nothing per stream.
func TestTACSZ2AllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	f := synth.Generate(synth.WarpX, 64, 1)
	h, err := grid.BuildAMR(f, 16, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{EB: f.ValueRange() * 1e-3, Compressor: SZ2, Arrangement: ArrangeTAC, Workers: 1}
	c, err := CompressHierarchy(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := loadIndex(c.Blob)
	if err != nil {
		t.Fatal(err)
	}
	streams := float64(len(ix.Streams))
	if streams < 20 {
		t.Fatalf("%v streams: the hierarchy no longer exercises many small boxes", streams)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Measured at 22 streams: compress 104 / 107 allocations, decode 75 / 78,
	// serial / two workers. The compress budgets are those plus < 10 %.
	for _, tc := range []struct {
		workers          int
		compress, decode float64 // per stream
	}{
		{1, 5.2, 7},
		{2, 5.35, 7},
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
		}); n > tc.compress*streams {
			t.Errorf("workers=%d: CompressTo: %v allocations for %v streams, budget %v per stream", tc.workers, n, streams, tc.compress)
		}
		if n := testing.AllocsPerRun(10, func() {
			if _, err := DecompressWorkers(c.Blob, tc.workers); err != nil {
				t.Fatal(err)
			}
		}); n > tc.decode*streams {
			t.Errorf("workers=%d: DecompressWorkers: %v allocations for %v streams, budget %v per stream", tc.workers, n, streams, tc.decode)
		}
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
