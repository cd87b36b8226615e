package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/filters"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/parallelcomp"
	"repro/internal/postproc"
	"repro/internal/synth"
	"repro/internal/sz2"
	"repro/internal/zfp"
)

func init() {
	register("tab1", "Image filters vs error-bounded post-processing (WarpX + ZFP)", runTable1)
	register("fig12", "Post-processing rate-distortion variants (WarpX + ZFP)", runFig12)
	register("tab2", "SZ2 vs post-processed SZ2 across CRs (WarpX)", runTable2)
	register("tab5", "AMRIC-SZ2 vs post-processed on both AMR levels (Nyx-T1)", runTable5)
	register("tab7", "Post-processing on multi-resolution data (RT, Hurricane × ZFP, SZ2)", runTable7)
	register("tab8", "Post-processing on uniform data (S3D, Nyx-T3 × ZFP, SZ2)", runTable8)
	register("tab9", "Post-processing overhead breakdown (S3D)", runTable9)
}

// uniformRoundTrip builds a RoundTrip for a single-field compressor.
func uniformRoundTrip(comp core.Compressor, eb float64) postproc.RoundTrip {
	return core.Options{EB: eb, Compressor: comp}.RoundTrip()
}

// uniformCompress encodes one uniform field with the registered backend at
// the given error bound and that backend's default options.
func uniformCompress(comp core.Compressor, f *field.Field, eb float64) ([]byte, error) {
	cd, ok := codec.ByID(byte(comp))
	if !ok {
		return nil, codec.ErrUnknownID(byte(comp))
	}
	return cd.Compress(f, codec.Params{EB: eb})
}

// postProcessUniform runs the full §III-B pipeline on a uniform field:
// sample → fit intensity → compress → decompress → process. It returns CR,
// PSNR before, and PSNR after.
func postProcessUniform(f *field.Field, comp core.Compressor, eb float64) (cr, before, after float64, err error) {
	rt := uniformRoundTrip(comp, eb)
	bs := core.PostBlockSize(core.Options{Compressor: comp, SZ2BlockSize: sz2.DefaultBlockSize}, 0)
	po := postproc.Options{EB: eb, BlockSize: bs, Candidates: core.PostCandidates(comp)}
	set, err := postproc.CollectSamples(f, rt, po)
	if err != nil {
		return 0, 0, 0, err
	}
	a := set.FindIntensity()
	blob, err := uniformCompress(comp, f, eb)
	if err != nil {
		return 0, 0, 0, err
	}
	dec, err := rtDecode(comp, blob)
	if err != nil {
		return 0, 0, 0, err
	}
	proc := postproc.Process(dec, a, po)
	return float64(f.Bytes()) / float64(len(blob)), metrics.PSNR(f, dec), metrics.PSNR(f, proc), nil
}

func rtDecode(comp core.Compressor, blob []byte) (*field.Field, error) {
	cd, ok := codec.ByID(byte(comp))
	if !ok {
		return nil, codec.ErrUnknownID(byte(comp))
	}
	return cd.Decompress(blob)
}

// runTable1 compares the classical filters against the error-bounded
// post-processor on ZFP-decompressed WarpX data at one aggressive setting.
func runTable1(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	f := synth.Generate(synth.WarpX, cfg.Size, cfg.Seed+10)
	eb := f.ValueRange() * 2e-2 // aggressive enough for visible ZFP artifacts
	blob, err := zfp.Compress(nil, f, zfp.Options{Tolerance: eb})
	if err != nil {
		return err
	}
	dec, err := zfp.Decompress(nil, blob)
	if err != nil {
		return err
	}
	po := postproc.Options{EB: eb, BlockSize: 4, Candidates: postproc.ZFPCandidates()}
	set, err := postproc.CollectSamples(f, uniformRoundTrip(core.ZFP, eb), po)
	if err != nil {
		return err
	}
	ours := postproc.Process(dec, set.FindIntensity(), po)
	printHeader(w, "Table I: PSNR of post-processing approaches (WarpX, ZFP)",
		"variant", "PSNR")
	rows := []struct {
		name string
		g    *field.Field
	}{
		{"Decompressed", dec},
		{"MedianFilter", filters.Median3(dec)},
		{"GaussianBlur", filters.Gaussian(dec, 1.0)},
		{"AnisoDiffusion", filters.AnisotropicDiffusion(dec, 5, f.ValueRange()*0.05, 1.0/7)},
		{"Ours", ours},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\n", r.name, metrics.PSNR(f, r.g))
	}
	return nil
}

// runFig12 sweeps ZFP tolerances on WarpX and reports the rate-distortion of
// the decompressed data, the unclamped Bézier smoothing, the full-error-
// bound clamp (a = 1), and the dynamic intensity ("Process").
func runFig12(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	f := synth.Generate(synth.WarpX, cfg.Size, cfg.Seed+11)
	rng := f.ValueRange()
	printHeader(w, "Fig 12: post-process variants rate-distortion (WarpX, ZFP)",
		"relEB", "CR", "PSNR-ZFP", "PSNR-Bezier", "PSNR-a1", "PSNR-Process")
	for _, rel := range relEBSweep {
		// ZFP's conservative tolerance needs a looser sweep than SZ to reach
		// the paper's CR range (its real error sits well below the bound).
		rel *= 4
		eb := rel * rng
		blob, err := zfp.Compress(nil, f, zfp.Options{Tolerance: eb})
		if err != nil {
			return err
		}
		dec, err := zfp.Decompress(nil, blob)
		if err != nil {
			return err
		}
		po := postproc.Options{EB: eb, BlockSize: 4, Candidates: postproc.ZFPCandidates()}
		// Unclamped Bézier: an effectively infinite limit.
		bezier := postproc.Process(dec, postproc.Uniform(1e12), po)
		a1 := postproc.Process(dec, postproc.Uniform(1), po)
		set, err := postproc.CollectSamples(f, uniformRoundTrip(core.ZFP, eb), po)
		if err != nil {
			return err
		}
		dynamic := postproc.Process(dec, set.FindIntensity(), po)
		fmt.Fprintf(w, "%.0e\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			rel, float64(f.Bytes())/float64(len(blob)),
			metrics.PSNR(f, dec), metrics.PSNR(f, bezier),
			metrics.PSNR(f, a1), metrics.PSNR(f, dynamic))
	}
	return nil
}

// runTable2 sweeps SZ2 on WarpX, reporting PSNR before and after
// post-processing at each CR.
func runTable2(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	f := synth.Generate(synth.WarpX, cfg.Size, cfg.Seed+12)
	rng := f.ValueRange()
	printHeader(w, "Table II: SZ2 vs post-processed SZ2 (WarpX)",
		"relEB", "CR", "PSNR-SZ2", "PSNR-Proc'ed")
	for _, rel := range relEBSweep {
		cr, before, after, err := postProcessUniform(f, core.SZ2, rel*rng)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%.0e\t%.1f\t%.2f\t%.2f\n", rel, cr, before, after)
	}
	return nil
}

// runTable5 runs the AMRIC-SZ2 multi-resolution pipeline on the in-situ AMR
// snapshot and reports per-level PSNR before and after post-processing.
func runTable5(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	h, err := nyxT1(cfg)
	if err != nil {
		return err
	}
	rng := hierarchyRange(h)
	printHeader(w, "Table V: post-processing of AMRIC-SZ2 on Nyx-T1 AMR levels",
		"relEB", "level", "CR", "PSNR-AMRIC-SZ2", "PSNR-Post-SZ2")
	for _, rel := range relEBSweep {
		opts := cfg.tuned(core.AMRICSZ2Options)(rel * rng)
		prep, err := core.Prepare(h, opts)
		if err != nil {
			return err
		}
		intens, err := prep.FindIntensities()
		if err != nil {
			return err
		}
		c, err := prep.Compress()
		if err != nil {
			return err
		}
		plain, err := core.DecompressWorkers(c.Blob, cfg.Workers)
		if err != nil {
			return err
		}
		proc, err := core.DecompressProcessedWorkers(c.Blob, intens, cfg.Workers)
		if err != nil {
			return err
		}
		for li := range h.Levels {
			a := mergedLevel(h, li)
			if a == nil {
				continue
			}
			cr := float64(a.Bytes()) / float64(maxInt(c.LevelBytes[li], 1))
			fmt.Fprintf(w, "%.0e\t%d\t%.1f\t%.2f\t%.2f\n", rel, li, cr,
				metrics.PSNR(a, mergedLevel(plain, li)),
				metrics.PSNR(a, mergedLevel(proc, li)))
		}
	}
	return nil
}

// runTable7 applies post-processing to multi-resolution RT and Hurricane
// data under both block-wise backends.
func runTable7(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	rt, err := rtAMR(cfg)
	if err != nil {
		return err
	}
	_, hurr, err := hurricaneAdaptive(cfg)
	if err != nil {
		return err
	}
	printHeader(w, "Table VII: post-processing on multi-resolution data",
		"dataset", "compressor", "relEB", "CR", "PSNR-Ori", "PSNR-Post")
	for _, ds := range []struct {
		name string
		h    *grid.Hierarchy
	}{{"RT", rt}, {"Hurricane", hurr}} {
		rng := hierarchyRange(ds.h)
		for _, comp := range []struct {
			name string
			mk   func(float64) core.Options
			mul  float64 // sweep scale: ZFP needs looser tolerances (see fig12)
		}{
			{"ZFP", cfg.tuned(core.MRZFPOptions), 4},
			{"SZ2", cfg.tuned(core.AMRICSZ2Options), 1},
		} {
			for _, rel := range relEBSweep {
				rel *= comp.mul
				opts := comp.mk(rel * rng)
				prep, err := core.Prepare(ds.h, opts)
				if err != nil {
					return err
				}
				intens, err := prep.FindIntensities()
				if err != nil {
					return err
				}
				c, err := prep.Compress()
				if err != nil {
					return err
				}
				plain, err := core.DecompressWorkers(c.Blob, cfg.Workers)
				if err != nil {
					return err
				}
				proc, err := core.DecompressProcessedWorkers(c.Blob, intens, cfg.Workers)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s\t%s\t%.0e\t%.1f\t%.2f\t%.2f\n",
					ds.name, comp.name, rel, c.Ratio(ds.h),
					payloadPSNR(ds.h, plain), payloadPSNR(ds.h, proc))
			}
		}
	}
	return nil
}

// runTable8 applies post-processing to uniform-resolution S3D and Nyx data.
func runTable8(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	printHeader(w, "Table VIII: post-processing on uniform data",
		"dataset", "compressor", "relEB", "CR", "PSNR-Ori", "PSNR-Post")
	for _, ds := range []struct {
		name string
		f    *field.Field
	}{
		{"S3D", synth.Generate(synth.S3D, cfg.Size, cfg.Seed+13)},
		{"Nyx-T3", synth.Generate(synth.Nyx, cfg.Size, cfg.Seed+14)},
	} {
		rng := ds.f.ValueRange()
		for _, comp := range []core.Compressor{core.ZFP, core.SZ2} {
			for _, rel := range relEBSweep {
				if comp == core.ZFP {
					rel *= 4 // looser sweep for ZFP, as in fig12
				}
				cr, before, after, err := postProcessUniform(ds.f, comp, rel*rng)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s\t%v\t%.0e\t%.1f\t%.2f\t%.2f\n",
					ds.name, comp, rel, cr, before, after)
			}
		}
	}
	return nil
}

// runTable9 breaks down the post-processing overhead on S3D: baseline
// workflow time (I/O + compress + decompress) vs the extra sampling/model
// and processing time, for ZFP and SZ2 in chunked-parallel mode (the paper's
// OpenMP configuration, via internal/parallelcomp) and SZ2 serial.
func runTable9(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	f := synth.Generate(synth.S3D, cfg.Size, cfg.Seed+15)
	rng := f.ValueRange()
	printHeader(w, "Table IX: post-processing overhead (seconds, S3D)",
		"variant", "relEB", "io", "comp+decomp", "sample+model", "process", "overhead")
	// Slab count for the parallel variants: the run's -workers bound when
	// set, else 2× cores (oversubscription evens out slab imbalance).
	pw := cfg.Workers
	if pw <= 0 {
		pw = parallel.Workers() * 2
	}
	variants := []struct {
		name    string
		comp    core.Compressor
		workers int
	}{
		{"ZFP(parallel)", core.ZFP, pw},
		{"SZ2(parallel)", core.SZ2, pw},
		{"SZ2(serial)", core.SZ2, 1},
	}
	for _, v := range variants {
		cd, ok := codec.ByID(byte(v.comp))
		if !ok {
			return codec.ErrUnknownID(byte(v.comp))
		}
		for _, rel := range []float64{1e-2, 2e-3, 5e-4} { // large, mid, small CR
			eb := rel * rng
			// I/O: write + read the raw field (the workflow's file stage).
			t0 := time.Now()
			tmp, err := writeTempField(f)
			if err != nil {
				return err
			}
			g, err := field.Load(tmp)
			if err != nil {
				return err
			}
			_ = g
			ioTime := time.Since(t0)
			os.Remove(tmp)

			t0 = time.Now()
			slabs, err := parallelcomp.Compress(f, cd, codec.Params{EB: eb}, v.workers)
			if err != nil {
				return err
			}
			dec, err := parallelcomp.Decompress(slabs, cd)
			if err != nil {
				return err
			}
			cdTime := time.Since(t0)

			bs := 4
			if v.comp == core.SZ2 {
				bs = sz2.DefaultBlockSize
			}
			po := postproc.Options{EB: eb, BlockSize: bs, Candidates: core.PostCandidates(v.comp)}
			t0 = time.Now()
			set, err := postproc.CollectSamples(f, uniformRoundTrip(v.comp, eb), po)
			if err != nil {
				return err
			}
			a := set.FindIntensity()
			smTime := time.Since(t0)

			t0 = time.Now()
			_ = postproc.Process(dec, a, po)
			pTime := time.Since(t0)

			base := ioTime + cdTime
			extra := smTime + pTime
			fmt.Fprintf(w, "%s\t%.0e\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
				v.name, rel, ioTime.Seconds(), cdTime.Seconds(),
				smTime.Seconds(), pTime.Seconds(), extra.Seconds()/base.Seconds())
		}
	}
	return nil
}

func writeTempField(f *field.Field) (string, error) {
	tmp, err := os.CreateTemp("", "mrwf-io-*.bin")
	if err != nil {
		return "", err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := f.Save(name); err != nil {
		os.Remove(name)
		return "", err
	}
	return name, nil
}
