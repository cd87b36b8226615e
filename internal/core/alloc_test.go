package core

import (
	"runtime/debug"
	"testing"

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
	const budget = 81
	if n := testing.AllocsPerRun(10, func() {
		if _, err := DecompressWorkers(c.Blob, 1); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Errorf("DecompressWorkers(blob, 1): %v allocations, budget %d", n, budget)
	}
}
