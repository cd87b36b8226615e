package roi

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/layout"
	"repro/internal/raceflag"
	"repro/internal/synth"
)

// refSelect is the ROI ranking as it was: one copied block per range,
// sort.Slice on (range desc, index asc).
func refSelect(f *field.Field, b int, topFrac float64) []bool {
	nbx, nby, nbz := f.Nx/b, f.Ny/b, f.Nz/b
	n := nbx * nby * nbz
	ranges := make([]float64, 0, n)
	for bz := 0; bz < nbz; bz++ {
		for by := 0; by < nby; by++ {
			for bx := 0; bx < nbx; bx++ {
				ranges = append(ranges, f.SubBlock(bx*b, by*b, bz*b, b, b, b).ValueRange())
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if ranges[order[i]] != ranges[order[j]] {
			return ranges[order[i]] > ranges[order[j]]
		}
		return order[i] < order[j]
	})
	mask := make([]bool, n)
	for _, bi := range order[:int(topFrac*float64(n)+0.5)] {
		mask[bi] = true
	}
	return mask
}

// refConvert is Convert as it was: every block copied out of the field,
// non-ROI blocks halved into a second fresh block, then copied in.
func refConvert(t *testing.T, f *field.Field, b int, topFrac float64) *grid.Hierarchy {
	t.Helper()
	h, err := grid.New(f.Nx, f.Ny, f.Nz, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	mask := refSelect(f, b, topFrac)
	nbx, nby, nbz := h.NumBlocks()
	for bz := 0; bz < nbz; bz++ {
		for by := 0; by < nby; by++ {
			for bx := 0; bx < nbx; bx++ {
				bi := h.BlockIndex(bx, by, bz)
				blk := f.SubBlock(bx*b, by*b, bz*b, b, b, b)
				if mask[bi] {
					h.Levels[0].Owned[bi] = true
					h.Levels[0].Data.SetBlock(bx*b, by*b, bz*b, blk)
				} else {
					h.Levels[1].Owned[bi] = true
					field.DownsampleBlock2(h.Levels[1].Data, bx*b/2, by*b/2, bz*b/2, blk, 0, 0, 0, b, b, b)
				}
			}
		}
	}
	return h
}

// nastyUniform is a non-cubic field with mixed magnitudes, NaN, ±Inf and -0
// samples, and exactly tied block ranges (constant blocks).
func nastyUniform(seed int64) *field.Field {
	rng := rand.New(rand.NewSource(seed))
	f := field.New(64, 32, 48)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for i := range f.Data {
		f.Data[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(10)-5))
		if rng.Intn(8192) == 0 {
			f.Data[i] = special[rng.Intn(len(special))]
		}
	}
	flat := field.New(16, 16, 16)
	for _, bc := range [][3]int{{0, 0, 0}, {3, 1, 2}, {1, 0, 1}} {
		f.SetBlock(bc[0]*16, bc[1]*16, bc[2]*16, flat)
	}
	return f
}

func TestConvertMatchesReference(t *testing.T) {
	f := nastyUniform(1)
	for _, b := range []int{8, 16} {
		for _, frac := range []float64{0.1, 0.5, 0.97} {
			mask := scanMask(t, f, Options{BlockB: b, TopFrac: frac})
			for i, m := range refSelect(f, b, frac) {
				if mask[i] != m {
					t.Fatalf("b=%d frac=%g: mask[%d] = %v, reference %v", b, frac, i, mask[i], m)
				}
			}
			got, err := Convert(f, Options{BlockB: b, TopFrac: frac})
			if err != nil {
				t.Fatal(err)
			}
			want := refConvert(t, f, b, frac)
			for l := range want.Levels {
				for i, o := range want.Levels[l].Owned {
					if got.Levels[l].Owned[i] != o {
						t.Fatalf("b=%d frac=%g level %d block %d: owned %v, reference %v", b, frac, l, i, !o, o)
					}
				}
				for i, v := range want.Levels[l].Data.Data {
					if g := got.Levels[l].Data.Data[i]; math.Float64bits(g) != math.Float64bits(v) {
						t.Fatalf("b=%d frac=%g level %d sample %d: %g, reference %g", b, frac, l, i, g, v)
					}
				}
			}
		}
	}
}

// sameBits reports whether a and b hold the same shape and sample bits.
func sameBits(a, b *field.Field) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Nx != b.Nx || a.Ny != b.Ny || a.Nz != b.Nz {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestSourcesMatchConvert: arranging the selection's sources, which read
// the field in place, gives the bits arranging Convert's hierarchy gives,
// for every arrangement — NaN, ±Inf and -0 samples included.
func TestSourcesMatchConvert(t *testing.T) {
	f := nastyUniform(2)
	for _, b := range []int{8, 16} {
		for _, frac := range []float64{0.1, 0.5, 0.97, 1} {
			sel, err := Scan(f, Options{BlockB: b, TopFrac: frac})
			if err != nil {
				t.Fatal(err)
			}
			h, err := Convert(f, Options{BlockB: b, TopFrac: frac})
			if err != nil {
				t.Fatal(err)
			}
			for l, got := range sel.Sources(f) {
				want := layout.LevelSource(h, l)
				for name, arrange := range map[string]func(layout.Source) *layout.Merged{
					"linear": func(s layout.Source) *layout.Merged { return s.Merge(layout.Linear, false, layout.PadLinear) },
					"padded": func(s layout.Source) *layout.Merged { return s.Merge(layout.Linear, true, layout.PadLinear) },
					"stack":  func(s layout.Source) *layout.Merged { return s.Merge(layout.Stack, false, layout.PadLinear) },
					"zorder": func(s layout.Source) *layout.Merged { return s.Merge(layout.ZOrder1D, false, layout.PadLinear) },
				} {
					if !sameBits(arrange(got).Data, arrange(want).Data) {
						t.Fatalf("b=%d frac=%g level %d %s: buffers differ", b, frac, l, name)
					}
				}
				boxes := want.TACBoxes()
				if len(got.TACBoxes()) != len(boxes) {
					t.Fatalf("b=%d frac=%g level %d: %d TAC boxes, want %d", b, frac, l, len(got.TACBoxes()), len(boxes))
				}
				gotBoxes, wantBoxes := got.Boxes(boxes), want.Boxes(boxes)
				for i, bx := range boxes {
					if !sameBits(gotBoxes[i], wantBoxes[i]) {
						t.Fatalf("b=%d frac=%g level %d box %+v differs", b, frac, l, bx)
					}
				}
			}
		}
	}
}

// TestConvertAllocBudget holds Convert to a fixed number of allocations —
// the hierarchy's arrays and the ranking — whatever the block count.
func TestConvertAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	f := synth.Generate(synth.Nyx, 64, 1)
	allocs := func(b int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Convert(f, Options{BlockB: b, TopFrac: 0.5}); err != nil {
				t.Fatal(err)
			}
		})
	}
	a16, a8 := allocs(16), allocs(8)
	if a16 > 32 {
		t.Fatalf("Convert(64³, b=16) allocates %v times, budget 32", a16)
	}
	if a8 != a16 {
		t.Fatalf("Convert allocations depend on block count: %v at 64 blocks, %v at 512", a16, a8)
	}
}

func BenchmarkROIConvert(b *testing.B) {
	f := synth.Generate(synth.Nyx, 128, 1)
	b.SetBytes(int64(f.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Convert(f, Options{BlockB: 16, TopFrac: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}
