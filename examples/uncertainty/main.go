// Uncertainty-visualization example (Fig. 14): a hurricane-like field is
// compressed aggressively with ZFP; the compression error pruning parts of
// an isosurface is then recovered visually by probabilistic marching cubes,
// whose Gaussian error model is estimated from the same samples the
// post-processing stage collects. Writes the three panels of Fig. 14 as
// PNGs into ./out.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/mcubes"
	"repro/internal/postproc"
	"repro/internal/render"
	"repro/internal/synth"
	"repro/internal/uncertainty"
	"repro/internal/zfp"
)

func main() {
	f := synth.GenerateDims(synth.Hurricane, 64, 64, 32, 11)
	iso := f.Mean() * 1.5
	eb := f.ValueRange() * 0.04 // aggressive compression, CR ~ hundreds

	blob, err := zfp.Compress(nil, f, zfp.Options{Tolerance: eb})
	if err != nil {
		log.Fatal(err)
	}
	dec, err := zfp.Decompress(nil, blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ZFP CR %.1f at tolerance %.3g\n", float64(f.Bytes())/float64(len(blob)), eb)

	// Isosurfaces before and after compression.
	origTris := mcubes.ExtractSurface(f, iso)
	decTris := mcubes.ExtractSurface(dec, iso)
	fmt.Printf("isosurface at %.2f: original %d triangles (area %.1f), decompressed %d (area %.1f)\n",
		iso, len(origTris), mcubes.SurfaceArea(origTris), len(decTris), mcubes.SurfaceArea(decTris))

	// Error model from the workflow's compression samples, conditioned on
	// voxels near the isovalue (§III-C).
	rt := func(g *field.Field) (*field.Field, error) {
		b, err := zfp.Compress(nil, g, zfp.Options{Tolerance: eb})
		if err != nil {
			return nil, err
		}
		return zfp.Decompress(nil, b)
	}
	set, err := postproc.CollectSamples(f, rt, postproc.Options{
		EB: eb, BlockSize: 4, Candidates: core.PostCandidates(core.ZFP)})
	if err != nil {
		log.Fatal(err)
	}
	model := uncertainty.ModelNearIsovalue(set, iso, eb*4)
	fmt.Printf("error model near isovalue: mean %.3g, stddev %.3g\n", model.Mean, model.StdDev)

	rec, err := uncertainty.AnalyzeRecovery(f, dec, iso, model, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compression pruned %d of %d crossing cells; uncertainty vis recovers %d (%.0f%%)\n",
		rec.Lost, rec.OrigCells, rec.Recovered, rec.RecoveryRate()*100)

	// Render the three panels.
	if err := os.MkdirAll("out", 0o755); err != nil {
		log.Fatal(err)
	}
	probs, err := uncertainty.CrossProbabilities(dec, iso, model)
	if err != nil {
		log.Fatal(err)
	}
	z := f.Nz / 2
	must(render.SavePNG(render.SliceZ(f, z, render.Gray), "out/original.png"))
	must(render.SavePNG(render.SliceZ(dec, z, render.Gray), "out/decompressed.png"))
	overlay, err := render.UncertaintyOverlay(dec, probs, z)
	if err != nil {
		log.Fatal(err)
	}
	must(render.SavePNG(overlay, "out/uncertainty.png"))
	fmt.Println("wrote out/original.png, out/decompressed.png, out/uncertainty.png")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
