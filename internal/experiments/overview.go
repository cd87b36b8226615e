package experiments

import (
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/postproc"
	"repro/internal/render"
	"repro/internal/roi"
	"repro/internal/synth"
	"repro/internal/uncertainty"
	"repro/internal/zfp"

	corepkg "repro/internal/core"
)

func init() {
	register("fig1", "AMR example dataset: Rayleigh–Taylor hierarchy overview", runFig1)
	register("fig2", "Per-level data distribution of a multi-resolution dataset", runFig2)
	register("fig4", "Compression-oriented ROI extraction quality (Nyx)", runFig4)
	register("fig14", "Uncertainty visualization of compression effects (Hurricane)", runFig14)
}

// runFig1 builds the Rayleigh–Taylor AMR hierarchy of Fig. 1 and reports its
// structure (per-level size and density, the Table III columns), optionally
// rendering a slice of the flattened field.
func runFig1(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	h, err := rtAMR(cfg)
	if err != nil {
		return err
	}
	printHeader(w, "Fig 1: Rayleigh–Taylor AMR hierarchy", "level", "resolution", "density", "samples")
	for li, lv := range h.Levels {
		u := h.UnitBlockSize(li)
		samples := 0
		for _, o := range lv.Owned {
			if o {
				samples += u * u * u
			}
		}
		fmt.Fprintf(w, "%d\t%dx%dx%d\t%.0f%%\t%d\n", li,
			lv.Data.Nx, lv.Data.Ny, lv.Data.Nz, h.Density(li)*100, samples)
	}
	if cfg.OutDir != "" {
		img := render.SliceZ(h.Flatten(), h.Nz/2, render.CoolWarm)
		if err := render.SavePNG(img, filepath.Join(cfg.OutDir, "fig1_rt_amr.png")); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", filepath.Join(cfg.OutDir, "fig1_rt_amr.png"))
	}
	return nil
}

// runFig2 shows how each level of a multi-resolution dataset holds a
// different, irregular part of the domain: per-level owned-block counts and,
// with an output directory, per-level occupancy renders.
func runFig2(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	h, err := rtAMR(cfg)
	if err != nil {
		return err
	}
	printHeader(w, "Fig 2: per-level block ownership", "level", "ownedBlocks", "boxes(TAC)")
	for li := range h.Levels {
		// The TAC partition size is a good irregularity proxy: a level whose
		// blocks form few boxes is contiguous; many boxes = fragmented.
		// (Import cycle note: TACPartition lives in layout, reached via core
		// in rd.go; here we only need counts.)
		owned := len(h.OwnedBlocks(li))
		boxes := tacBoxCount(h, li)
		fmt.Fprintf(w, "%d\t%d\t%d\n", li, owned, boxes)
		if cfg.OutDir != "" {
			img := render.SliceZ(levelOccupancy(h, li), h.Nz/h.Levels[li].Scale/2, render.Gray)
			path := filepath.Join(cfg.OutDir, fmt.Sprintf("fig2_level%d.png", li))
			if err := render.SavePNG(img, path); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", path)
		}
	}
	return nil
}

// runFig4 reproduces the ROI-extraction quality claim: selecting a small
// fraction of Nyx blocks captures the halos almost perfectly.
func runFig4(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	f := synth.Generate(synth.Nyx, cfg.Size, cfg.Seed+20)
	printHeader(w, "Fig 4: ROI extraction on Nyx", "topFrac", "sampleRatio", "SSIM", "PSNR")
	for _, frac := range []float64{0.15, 0.25, 0.5} {
		rec, err := roi.ROIOnly(f, roi.Options{BlockB: 16, TopFrac: frac})
		if err != nil {
			return err
		}
		st, err := roi.Measure(f, roi.Options{BlockB: 16, TopFrac: frac})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%.2f\t%.3f\t%.5f\t%.2f\n", frac, st.SampleRatio,
			metrics.SSIM3D(f, rec), metrics.PSNR(f, rec))
	}
	if cfg.OutDir != "" {
		rec, err := roi.ROIOnly(f, roi.Options{BlockB: 16, TopFrac: 0.15})
		if err != nil {
			return err
		}
		for _, out := range []struct {
			name string
			f    *field.Field
		}{{"fig4_original.png", f}, {"fig4_roi.png", rec}} {
			img := render.LogSliceZ(out.f, f.Nz/2, render.Viridis)
			if err := render.SavePNG(img, filepath.Join(cfg.OutDir, out.name)); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", filepath.Join(cfg.OutDir, out.name))
		}
	}
	return nil
}

// runFig14 compresses the Hurricane dataset aggressively with ZFP, models
// the compression error from the workflow's samples, and reports how many
// isosurface cells the compression pruned and how many the probabilistic
// marching cubes recover; with an output directory it writes the three
// panels of Fig. 14.
func runFig14(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	f := synth.GenerateDims(synth.Hurricane, cfg.Size, cfg.Size, cfg.Size/2, cfg.Seed+21)
	eb := f.ValueRange() * 0.08 // aggressive: the CR≈240 regime of Fig. 14
	blob, err := zfp.Compress(nil, f, zfp.Options{Tolerance: eb})
	if err != nil {
		return err
	}
	dec, err := zfp.Decompress(nil, blob)
	if err != nil {
		return err
	}
	iso := f.Mean() * 1.5
	po := postproc.Options{EB: eb, BlockSize: 4, Candidates: postproc.ZFPCandidates()}
	set, err := postproc.CollectSamples(f, uniformRoundTrip(corepkg.ZFP, eb), po)
	if err != nil {
		return err
	}
	model := uncertainty.ModelNearIsovalue(set, iso, eb*4)
	rec, err := uncertainty.AnalyzeRecovery(f, dec, iso, model, 0.05)
	if err != nil {
		return err
	}
	printHeader(w, "Fig 14: isosurface uncertainty under compression (Hurricane, ZFP)",
		"quantity", "value")
	fmt.Fprintf(w, "CR\t%.1f\n", float64(f.Bytes())/float64(len(blob)))
	fmt.Fprintf(w, "isovalue\t%.3f\n", iso)
	fmt.Fprintf(w, "error-model stddev\t%.4g\n", model.StdDev)
	fmt.Fprintf(w, "orig crossing cells\t%d\n", rec.OrigCells)
	fmt.Fprintf(w, "decomp crossing cells\t%d\n", rec.DecompCells)
	fmt.Fprintf(w, "lost cells\t%d\n", rec.Lost)
	fmt.Fprintf(w, "recovered by uncertainty vis\t%d (%.0f%%)\n", rec.Recovered, rec.RecoveryRate()*100)
	fmt.Fprintf(w, "spurious cells\t%d\n", rec.Spurious)
	if cfg.OutDir != "" {
		probs, err := uncertainty.CrossProbabilities(dec, iso, model)
		if err != nil {
			return err
		}
		z := f.Nz / 2
		if err := render.SavePNG(render.SliceZ(f, z, render.Gray), filepath.Join(cfg.OutDir, "fig14_original.png")); err != nil {
			return err
		}
		if err := render.SavePNG(render.SliceZ(dec, z, render.Gray), filepath.Join(cfg.OutDir, "fig14_decompressed.png")); err != nil {
			return err
		}
		overlay, err := render.UncertaintyOverlay(dec, probs, z)
		if err != nil {
			return err
		}
		if err := render.SavePNG(overlay, filepath.Join(cfg.OutDir, "fig14_uncertainty.png")); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote 3 panels to %s\n", cfg.OutDir)
	}
	return nil
}

// levelOccupancy renders a level's ownership as a 0/1 field at the level's
// resolution.
func levelOccupancy(h *grid.Hierarchy, level int) *field.Field {
	u := h.UnitBlockSize(level)
	lv := h.Levels[level]
	out := field.New(lv.Data.Nx, lv.Data.Ny, lv.Data.Nz)
	for _, bc := range h.OwnedBlocks(level) {
		for z := 0; z < u; z++ {
			for y := 0; y < u; y++ {
				for x := 0; x < u; x++ {
					out.Set(bc[0]*u+x, bc[1]*u+y, bc[2]*u+z, 1)
				}
			}
		}
	}
	return out
}

// tacBoxCount reports how many contiguous boxes a level fragments into.
func tacBoxCount(h *grid.Hierarchy, level int) int {
	return len(layout.TACPartition(h, level))
}
