// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV). Each experiment is a named function that prints
// paper-style rows; cmd/mrbench exposes them on the command line and the
// root bench_test.go wraps them as Go benchmarks.
//
// Absolute numbers differ from the paper (different substrate, synthetic
// data, smaller domains), but each experiment preserves the comparison
// structure: the same methods, sweeps, and reported quantities, so the
// paper's claims (who wins, in which regime) can be checked directly.
//
// Only the paper's evaluation lives here. Throughput, latency and memory of
// the system around the workflow (codecs, container reads, serving) are
// measured by the gated harness in bench/ (bash bench/run.sh).
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/roi"
	"repro/internal/sim"
	"repro/internal/synth"
)

// Config parameterizes an experiment run.
type Config struct {
	// Size is the fine-grid edge for cubic datasets (default 64; must be a
	// multiple of 16, and a power of two for spectra).
	Size int
	// Seed drives all synthetic data (default 42).
	Seed int64
	// OutDir, when non-empty, receives rendered PNG artifacts.
	OutDir string
	// Workers bounds concurrent backend compression/decompression streams
	// (0 = all cores, 1 = serial). For the core container pipeline the
	// results are identical for every value — only wall-clock timings
	// change. The chunked-parallel variants of Table IX are the exception:
	// there Workers also sets the z-slab count, which changes the blobs
	// (each slab loses cross-slab prediction context, the paper's OpenMP
	// ratio-loss effect).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Size == 0 {
		c.Size = 64
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, cfg Config) error
}

// registry of all experiments, populated by init functions in this package.
var registry []Experiment

func register(id, title string, run func(io.Writer, Config) error) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- dataset builders -----------------------------------------------------

// nyxT1 is the in-situ AMR dataset (simulation snapshot, fine density ~25%).
func nyxT1(cfg Config) (*grid.Hierarchy, error) {
	s := sim.New(sim.Config{N: cfg.Size, Seed: cfg.Seed, FineFrac: 0.25})
	for i := 0; i < 3; i++ {
		s.Step(1)
	}
	return s.Snapshot()
}

// nyxT2 is the offline 2-level AMR dataset (Table III: fine 58%, coarse 42%).
func nyxT2(cfg Config) (*grid.Hierarchy, error) {
	f := synth.Generate(synth.Nyx, cfg.Size, cfg.Seed+1)
	return grid.BuildAMR(f, 16, []float64{0.58, 0.42})
}

// rtAMR is the 3-level Rayleigh–Taylor dataset (15% / 31% / 54%).
func rtAMR(cfg Config) (*grid.Hierarchy, error) {
	f := synth.Generate(synth.RT, cfg.Size, cfg.Seed+2)
	return grid.BuildAMR(f, 16, []float64{0.15, 0.31, 0.54})
}

// warpxAdaptive converts a WarpX-like uniform field (elongated domain) to
// adaptive data at 50% ROI, as in the paper's WarpX configuration.
func warpxAdaptive(cfg Config) (*field.Field, *grid.Hierarchy, error) {
	n := cfg.Size
	f := synth.GenerateDims(synth.WarpX, n/2, n/2, 2*n, cfg.Seed+3)
	h, err := roi.Convert(f, roi.Options{BlockB: 16, TopFrac: 0.5})
	return f, h, err
}

// hurricaneAdaptive converts a Hurricane-like field to adaptive data at 35%
// ROI (Table III: fine 35%, coarse 65%).
func hurricaneAdaptive(cfg Config) (*field.Field, *grid.Hierarchy, error) {
	n := cfg.Size
	f := synth.GenerateDims(synth.Hurricane, n, n, n/2, cfg.Seed+4)
	h, err := roi.Convert(f, roi.Options{BlockB: 16, TopFrac: 0.35})
	return f, h, err
}

// --- method presets ---------------------------------------------------------

// method names a pipeline configuration used across rate-distortion plots.
type method struct {
	name string
	opts func(eb float64) core.Options
}

// tuned applies the run's worker bound to a preset constructor.
func (c Config) tuned(mk func(eb float64) core.Options) func(eb float64) core.Options {
	return func(eb float64) core.Options {
		o := mk(eb)
		o.Workers = c.Workers
		return o
	}
}

func sz3Methods(cfg Config, includeTAC bool) []method {
	ms := []method{
		{"Baseline-SZ3", cfg.tuned(core.BaselineSZ3Options)},
		{"AMRIC-SZ3", cfg.tuned(core.AMRICSZ3Options)},
	}
	if includeTAC {
		ms = append(ms, method{"TAC-SZ3", cfg.tuned(core.TACSZ3Options)})
	}
	ms = append(ms,
		method{"Ours(pad)", cfg.tuned(core.SZ3MRPadOnlyOptions)},
		method{"Ours(pad+eb)", cfg.tuned(core.SZ3MROptions)},
	)
	return ms
}

// --- shared measurement helpers ---------------------------------------------

// mergedLevel returns one level's payload as a single array (nil if empty).
func mergedLevel(h *grid.Hierarchy, level int) *field.Field {
	return layout.LinearMerge(h, level).Data
}

// hierarchyRange returns the maximum per-level value range (the reference
// range for relative error bounds).
func hierarchyRange(h *grid.Hierarchy) float64 {
	rng := 0.0
	for _, lv := range h.Levels {
		if r := lv.Data.ValueRange(); r > rng {
			rng = r
		}
	}
	return rng
}

// payloadPSNR computes PSNR over the stored multi-resolution samples
// (concatenating each level's linear merge, so only owned samples count).
func payloadPSNR(orig, dec *grid.Hierarchy) float64 {
	var sqe float64
	var n int
	rng := 0.0
	for li := range orig.Levels {
		a := layout.LinearMerge(orig, li)
		b := layout.LinearMerge(dec, li)
		if a.Data == nil {
			continue
		}
		if r := a.Data.ValueRange(); r > rng {
			rng = r
		}
		for i, v := range a.Data.Data {
			d := v - b.Data.Data[i]
			sqe += d * d
		}
		n += a.Data.Len()
	}
	if n == 0 || sqe == 0 {
		return math.Inf(1)
	}
	if rng == 0 {
		rng = 1
	}
	return 20*math.Log10(rng) - 10*math.Log10(sqe/float64(n))
}

// levelPSNRAndCR compresses h with opts and returns, per level, the
// compression ratio and PSNR of that level's payload.
func levelPSNRAndCR(h *grid.Hierarchy, opts core.Options) (cr, psnr []float64, err error) {
	c, err := core.CompressHierarchy(h, opts)
	if err != nil {
		return nil, nil, err
	}
	g, err := core.DecompressWorkers(c.Blob, opts.Workers)
	if err != nil {
		return nil, nil, err
	}
	for li := range h.Levels {
		a := layout.LinearMerge(h, li)
		b := layout.LinearMerge(g, li)
		if a.Data == nil {
			cr = append(cr, 0)
			psnr = append(psnr, math.Inf(1))
			continue
		}
		raw := a.Data.Bytes()
		comp := c.LevelBytes[li]
		if comp == 0 {
			comp = 1
		}
		cr = append(cr, float64(raw)/float64(comp))
		psnr = append(psnr, metrics.PSNR(a.Data, b.Data))
	}
	return cr, psnr, nil
}

// compressOverall returns (CR, payload PSNR) for one configuration.
func compressOverall(h *grid.Hierarchy, opts core.Options) (float64, float64, error) {
	c, err := core.CompressHierarchy(h, opts)
	if err != nil {
		return 0, 0, err
	}
	g, err := core.DecompressWorkers(c.Blob, opts.Workers)
	if err != nil {
		return 0, 0, err
	}
	return c.Ratio(h), payloadPSNR(h, g), nil
}

// ebForTargetCR binary-searches the error bound that brings a method to
// (approximately) the target compression ratio, enabling the paper's
// "same CR" comparisons.
func ebForTargetCR(h *grid.Hierarchy, mk func(eb float64) core.Options, targetCR float64) (float64, error) {
	rng := hierarchyRange(h)
	lo, hi := rng*1e-7, rng*0.2
	var eb float64
	for i := 0; i < 12; i++ {
		eb = math.Sqrt(lo * hi) // geometric midpoint: CR is log-sensitive
		c, err := core.CompressHierarchy(h, mk(eb))
		if err != nil {
			return 0, err
		}
		cr := c.Ratio(h)
		if math.Abs(cr-targetCR)/targetCR < 0.03 {
			return eb, nil
		}
		if cr < targetCR {
			lo = eb
		} else {
			hi = eb
		}
	}
	return eb, nil
}

// relEBSweep is the default relative-error-bound sweep for rate-distortion
// experiments (from tight to loose, i.e. low to high CR).
var relEBSweep = []float64{2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2}

func printHeader(w io.Writer, title string, cols ...string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}
