package experiments

import (
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/halo"
	"repro/internal/metrics"
	"repro/internal/postproc"
	"repro/internal/render"
	"repro/internal/synth"
	"repro/internal/uncertainty"
	"repro/internal/zfp"
)

func init() {
	register("ext-halo", "Future work: halo-finder post-analysis preservation across CRs (Nyx)", runExtHalo)
	register("abl-curve", "Future work: post-processing curve (quadratic Bézier vs 4-point cubic)", runAblCurve)
	register("ext-volren", "Future work: volume-rendered uncertainty (Hurricane)", runExtVolren)
}

// runExtHalo sweeps the SZ3MR error bound on the Nyx AMR dataset and
// compares halo catalogs (count, match rate, mass error) of the original and
// reconstructed fields — the application-specific post-analysis quality the
// paper's future work targets.
func runExtHalo(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	h, err := nyxT2(cfg)
	if err != nil {
		return err
	}
	orig := h.Flatten()
	cat := halo.Find(orig, halo.Options{})
	rng := hierarchyRange(h)
	printHeader(w, "Halo-finder preservation (Nyx-T2, SZ3MR)",
		"relEB", "CR", "origHalos", "decompHalos", "matchRate", "massErr", "centerDist")
	for _, rel := range []float64{5e-4, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2} {
		c, err := core.CompressHierarchy(h, cfg.tuned(core.SZ3MROptions)(rel*rng))
		if err != nil {
			return err
		}
		g, err := core.DecompressWorkers(c.Blob, cfg.Workers)
		if err != nil {
			return err
		}
		dcat := halo.Find(g.Flatten(), halo.Options{})
		d := halo.Compare(cat, dcat, 2)
		fmt.Fprintf(w, "%.0e\t%.1f\t%d\t%d\t%.2f\t%.4f\t%.3f\n",
			rel, c.Ratio(h), d.OrigCount, d.DecompCount, d.MatchRate(), d.MassErr, d.CenterDist)
	}
	return nil
}

// runAblCurve compares the paper's quadratic Bézier against the 4-point
// cubic replacement curve on SZ2-compressed data.
func runAblCurve(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	f := synth.Generate(synth.Nyx, cfg.Size, cfg.Seed+40)
	rng := f.ValueRange()
	printHeader(w, "Post-processing curve comparison (Nyx, SZ2)",
		"curve", "relEB", "CR", "PSNR-before", "PSNR-after")
	for _, curve := range []struct {
		name string
		kind postproc.CurveKind
	}{{"quad-bezier", postproc.QuadBezier}, {"cubic4", postproc.Cubic4}} {
		for _, rel := range []float64{1e-3, 5e-3, 1e-2} {
			eb := rel * rng
			rt := uniformRoundTrip(core.SZ2, eb)
			po := postproc.Options{EB: eb, BlockSize: 6, Candidates: postproc.SZ2Candidates(), Curve: curve.kind}
			set, err := postproc.CollectSamples(f, rt, po)
			if err != nil {
				return err
			}
			a := set.FindIntensity()
			dec, err := rt(f)
			if err != nil {
				return err
			}
			proc := postproc.Process(dec, a, po)
			// CR via the actual compressor on the full field.
			blob, err := uniformCompress(core.SZ2, f, eb)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%.0e\t%.1f\t%.2f\t%.2f\n", curve.name, rel,
				float64(f.Bytes())/float64(len(blob)),
				metrics.PSNR(f, dec), metrics.PSNR(f, proc))
		}
	}
	return nil
}

// runExtVolren renders volume images of the decompressed Hurricane field
// with and without the uncertainty emission and reports basic stats; the
// images land in OutDir when set.
func runExtVolren(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	f := synth.GenerateDims(synth.Hurricane, cfg.Size, cfg.Size, cfg.Size/2, cfg.Seed+41)
	eb := f.ValueRange() * 0.05
	blob, err := zfp.Compress(nil, f, zfp.Options{Tolerance: eb})
	if err != nil {
		return err
	}
	dec, err := zfp.Decompress(nil, blob)
	if err != nil {
		return err
	}
	iso := f.Mean() * 1.5
	probs, err := uncertainty.CrossProbabilities(dec, iso, uncertainty.ErrorModel{StdDev: f.MaxAbsDiff(dec) / 2})
	if err != nil {
		return err
	}
	printHeader(w, "Volume-rendered uncertainty (Hurricane, ZFP)", "quantity", "value")
	fmt.Fprintf(w, "CR\t%.1f\n", float64(f.Bytes())/float64(len(blob)))
	maxP := 0.0
	hot := 0
	for _, p := range probs.Data {
		if p > maxP {
			maxP = p
		}
		if p > 0.5 {
			hot++
		}
	}
	fmt.Fprintf(w, "max crossing probability\t%.3f\n", maxP)
	fmt.Fprintf(w, "cells with P>0.5\t%d\n", hot)
	if cfg.OutDir != "" {
		img := render.Volume(dec, render.VolumeOptions{})
		if err := render.SavePNG(img, filepath.Join(cfg.OutDir, "volren_data.png")); err != nil {
			return err
		}
		unc, err := render.VolumeWithUncertainty(dec, probs, render.VolumeOptions{})
		if err != nil {
			return err
		}
		if err := render.SavePNG(unc, filepath.Join(cfg.OutDir, "volren_uncertainty.png")); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote volren_data.png, volren_uncertainty.png\n")
	}
	return nil
}
