package reader

import (
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/raceflag"
	"repro/internal/roi"
	"repro/internal/synth"
)

// TestReadLevelAllocBudget pins the allocation count of one cold fine-level
// read (64³ Nyx, ROI 16/0.5, SZ3MR, brick cache off): payload buffer, codec
// scratch, decoded field, placed level. What the reader adds around
// core.DecodeIndexed and core.PlaceIndexed must stay free on an untraced
// request — no span tags, no error strings on the success path.
func TestReadLevelAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	f := synth.Generate(synth.Nyx, 64, 1)
	h, err := roi.Convert(f, roi.Options{BlockB: 16, TopFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, compress(t, h, core.SZ3MROptions(f.ValueRange()*1e-3)), WithCache(nil))
	// No collection during the measurement: a GC empties the codecs' scratch
	// pools, and refilling them would add a run-dependent allocation or two.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const budget = 46 // the pre-refactor reader's count; the shared path measures 44
	if n := testing.AllocsPerRun(10, func() {
		if _, err := r.ReadLevel(0); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Errorf("uncached ReadLevel(0): %v allocations, budget %d", n, budget)
	}
}

// TestWarmReadLevelAllocBudget pins the allocation count of a level read
// served wholly from the brick cache (32³ Nyx, 3-level AMR, block 8,
// untraced): for a merged level, the brick key; for TAC, each box's key plus
// the level assembled from the cached boxes. A warm read must not pay for
// the coalescing machinery behind a miss.
func TestWarmReadLevelAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	f := synth.Generate(synth.Nyx, 32, 1)
	h, err := grid.BuildAMR(f, 8, []float64{0.3, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	eb := f.ValueRange() * 1e-3
	for _, tc := range []struct {
		name   string
		opt    core.Options
		budget float64
	}{
		{"linear", core.Options{EB: eb, Arrangement: core.ArrangeLinear}, 1},
		{"tac", core.Options{EB: eb, Arrangement: core.ArrangeTAC}, 10},
	} {
		r := mustOpen(t, compress(t, h, tc.opt))
		if _, err := r.ReadLevel(0); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := r.ReadLevel(0); err != nil {
				t.Fatal(err)
			}
		}); n > tc.budget {
			t.Errorf("%s: warm ReadLevel(0): %v allocations, budget %v", tc.name, n, tc.budget)
		}
		if st := r.Stats(); st.BackendDecodes == 0 || st.CacheHits == 0 {
			t.Fatalf("%s: the measured reads were not warm: %+v", tc.name, st)
		}
	}
}
