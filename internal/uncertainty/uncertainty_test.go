package uncertainty

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/mcubes"
	"repro/internal/postproc"
	"repro/internal/synth"
	"repro/internal/zfp"
)

func TestVertexAboveProb(t *testing.T) {
	m := ErrorModel{Mean: 0, StdDev: 1}
	if p := m.VertexAboveProb(0, 0); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("P(above) at iso = %g, want 0.5", p)
	}
	if p := m.VertexAboveProb(10, 0); p < 0.999 {
		t.Fatalf("P(above) far above iso = %g", p)
	}
	if p := m.VertexAboveProb(-10, 0); p > 0.001 {
		t.Fatalf("P(above) far below iso = %g", p)
	}
	// Zero variance degenerates to a step.
	d := ErrorModel{}
	if d.VertexAboveProb(1, 0) != 1 || d.VertexAboveProb(-1, 0) != 0 {
		t.Fatal("deterministic model broken")
	}
}

func TestCrossProbabilitiesDeterministicLimit(t *testing.T) {
	// With zero variance, probabilities must be exactly the crossing mask.
	f := field.New(4, 4, 4)
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				f.Set(x, y, z, float64(x))
			}
		}
	}
	p, err := CrossProbabilities(f, 1.5, ErrorModel{})
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < 3; z++ {
		for y := 0; y < 3; y++ {
			for x := 0; x < 3; x++ {
				want := 0.0
				if x == 1 { // cells spanning values [1,2] cross iso 1.5
					want = 1
				}
				if got := p.At(x, y, z); got != want {
					t.Fatalf("P(%d,%d,%d) = %g, want %g", x, y, z, got, want)
				}
			}
		}
	}
}

func TestCrossProbabilitiesInUnitRange(t *testing.T) {
	f := synth.Generate(synth.Hurricane, 16, 1)
	m := ErrorModel{Mean: 0.01, StdDev: f.ValueRange() * 0.01}
	p, err := CrossProbabilities(f, f.Mean(), m)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range p.Data {
		if v < -1e-12 || v > 1+1e-12 || math.IsNaN(v) {
			t.Fatalf("probability out of range at %d: %g", i, v)
		}
	}
}

func TestMonteCarloAgreesWithClosedForm(t *testing.T) {
	f := synth.Generate(synth.S3D, 10, 2)
	iso := f.Mean()
	m := ErrorModel{StdDev: f.ValueRange() * 0.02}
	closed, err := CrossProbabilities(f, iso, m)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloCrossProbabilities(f, iso, m, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Mean absolute deviation should be small (MC noise ~ 1/sqrt(400)).
	sum := 0.0
	for i := range closed.Data {
		sum += math.Abs(closed.Data[i] - mc.Data[i])
	}
	if mad := sum / float64(len(closed.Data)); mad > 0.05 {
		t.Fatalf("closed form vs Monte Carlo MAD = %g", mad)
	}
}

func TestProbabilityHighNearSurface(t *testing.T) {
	// Linear field, iso plane at x=1.5: cells adjacent to the plane should
	// have higher crossing probability than distant cells.
	f := field.New(8, 4, 4)
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 8; x++ {
				f.Set(x, y, z, float64(x))
			}
		}
	}
	p, err := CrossProbabilities(f, 1.5, ErrorModel{StdDev: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !(p.At(1, 1, 1) > p.At(5, 1, 1)) {
		t.Fatalf("probability not peaked at surface: %g vs %g", p.At(1, 1, 1), p.At(5, 1, 1))
	}
}

func TestModelFromSamples(t *testing.T) {
	f := synth.Generate(synth.Hurricane, 32, 3)
	eb := f.ValueRange() * 1e-2
	rt := func(g *field.Field) (*field.Field, error) {
		data, err := zfp.Compress(nil, g, zfp.Options{Tolerance: eb})
		if err != nil {
			return nil, err
		}
		return zfp.Decompress(nil, data)
	}
	set, err := postproc.CollectSamples(f, rt, postproc.Options{EB: eb, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := ModelFromSamples(set)
	if m.StdDev < 0 || m.StdDev > eb {
		t.Fatalf("implausible error stddev %g for eb %g", m.StdDev, eb)
	}
	iso := f.Mean() * 2
	mi := ModelNearIsovalue(set, iso, eb*10)
	if mi.StdDev < 0 {
		t.Fatalf("isovalue model stddev %g", mi.StdDev)
	}
}

// TestFig14RecoveryDirection reproduces the mechanism of Fig. 14: heavy
// compression prunes isosurface cells, and the probabilistic visualization
// flags most of the lost cells.
func TestFig14RecoveryDirection(t *testing.T) {
	f := synth.Generate(synth.Hurricane, 32, 4)
	eb := f.ValueRange() * 0.05 // aggressive, like CR=240 in the paper
	data, err := zfp.Compress(nil, f, zfp.Options{Tolerance: eb})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := zfp.Decompress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	iso := f.Mean() * 1.5
	m := ErrorModel{StdDev: f.MaxAbsDiff(dec) / 2}
	r, err := AnalyzeRecovery(f, dec, iso, m, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.OrigCells == 0 {
		t.Fatal("no isosurface in original")
	}
	if r.Lost == 0 {
		t.Skip("compression did not prune cells at this setting")
	}
	if r.RecoveryRate() < 0.5 {
		t.Fatalf("uncertainty recovered only %.0f%% of lost cells", r.RecoveryRate()*100)
	}
}

func TestAnalyzeRecoveryValidation(t *testing.T) {
	a := field.New(4, 4, 4)
	b := field.New(5, 4, 4)
	if _, err := AnalyzeRecovery(a, b, 0, ErrorModel{}, 0.5); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestMonteCarloValidation(t *testing.T) {
	f := field.New(4, 4, 4)
	if _, err := MonteCarloCrossProbabilities(f, 0, ErrorModel{}, 0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
	tiny := field.New(1, 1, 1)
	if _, err := CrossProbabilities(tiny, 0, ErrorModel{}); err == nil {
		t.Fatal("1-voxel field accepted")
	}
}

// MonteCarloCrossProbabilities estimates the probabilities
// CrossProbabilities computes by sampling realizations of the error model:
// the statistical cross-check of the closed form (and the general mechanism
// of probabilistic marching cubes for non-Gaussian models).
func MonteCarloCrossProbabilities(decomp *field.Field, iso float64, m ErrorModel, trials int, seed int64) (*field.Field, error) {
	cx, cy, cz := decomp.Nx-1, decomp.Ny-1, decomp.Nz-1
	if cx <= 0 || cy <= 0 || cz <= 0 {
		return nil, errors.New("uncertainty: field too small for cells")
	}
	if trials <= 0 {
		return nil, errors.New("uncertainty: trials must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, cx*cy*cz)
	sample := field.New(decomp.Nx, decomp.Ny, decomp.Nz)
	for t := 0; t < trials; t++ {
		for i, d := range decomp.Data {
			sample.Data[i] = d + m.Mean + m.StdDev*rng.NormFloat64()
		}
		mask, _ := mcubes.CrossingCells(sample, iso)
		for i, crossed := range mask {
			if crossed {
				counts[i]++
			}
		}
	}
	out := field.New(cx, cy, cz)
	for i, c := range counts {
		out.Data[i] = float64(c) / float64(trials)
	}
	return out, nil
}
