// Package render produces the visualization artifacts of the workflow:
// colormapped 2D slices of scalar fields and uncertainty overlays (crossing
// probability in red over a grayscale base, as in Fig. 14), written as PNG.
// It stands in for the paper's VTK-based rendering, sufficient to compute
// image-space quality metrics and to inspect compression artifacts.
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"os"

	"repro/internal/field"
)

// Colormap maps a normalized value in [0,1] to a color.
type Colormap func(t float64) color.RGBA

// controlPoint colormaps are defined by linear interpolation between a few
// anchors, adequate for inspection and SSIM-style comparisons.
type controlPoint struct {
	t       float64
	r, g, b uint8
}

func lerpMap(points []controlPoint) Colormap {
	return func(t float64) color.RGBA {
		if math.IsNaN(t) {
			return color.RGBA{255, 0, 255, 255}
		}
		if t <= points[0].t {
			p := points[0]
			return color.RGBA{p.r, p.g, p.b, 255}
		}
		for i := 1; i < len(points); i++ {
			if t <= points[i].t {
				a, b := points[i-1], points[i]
				f := (t - a.t) / (b.t - a.t)
				return color.RGBA{
					uint8(float64(a.r) + f*(float64(b.r)-float64(a.r))),
					uint8(float64(a.g) + f*(float64(b.g)-float64(a.g))),
					uint8(float64(a.b) + f*(float64(b.b)-float64(a.b))),
					255,
				}
			}
		}
		p := points[len(points)-1]
		return color.RGBA{p.r, p.g, p.b, 255}
	}
}

// Viridis approximates the matplotlib viridis colormap.
var Viridis = lerpMap([]controlPoint{
	{0.0, 68, 1, 84},
	{0.25, 59, 82, 139},
	{0.5, 33, 145, 140},
	{0.75, 94, 201, 98},
	{1.0, 253, 231, 37},
})

// CoolWarm approximates the diverging cool-warm map ("warmer colors indicate
// higher values", Fig. 5).
var CoolWarm = lerpMap([]controlPoint{
	{0.0, 59, 76, 192},
	{0.5, 221, 221, 221},
	{1.0, 180, 4, 38},
})

// Gray is a linear grayscale map.
var Gray = lerpMap([]controlPoint{{0, 0, 0, 0}, {1, 255, 255, 255}})

// SliceZ renders the z-slice of a field with the colormap, normalizing by
// the field's global range (so slices of original and decompressed fields
// are directly comparable when rendered with the same reference).
func SliceZ(f *field.Field, z int, cmap Colormap) *image.RGBA {
	return SliceZNormalized(f, z, cmap, fieldMin(f), fieldMax(f))
}

// SliceZNormalized renders with an explicit normalization range.
func SliceZNormalized(f *field.Field, z int, cmap Colormap, lo, hi float64) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, f.Nx, f.Ny))
	den := hi - lo
	if den == 0 {
		den = 1
	}
	for y := 0; y < f.Ny; y++ {
		for x := 0; x < f.Nx; x++ {
			t := (f.At(x, y, z) - lo) / den
			if t < 0 {
				t = 0
			} else if t > 1 {
				t = 1
			}
			// Flip y so +y is up, the usual scientific-plot convention.
			img.SetRGBA(x, f.Ny-1-y, cmap(t))
		}
	}
	return img
}

// LogSliceZ renders a z-slice on a log10 scale, useful for fields spanning
// orders of magnitude (Nyx density).
func LogSliceZ(f *field.Field, z int, cmap Colormap) *image.RGBA {
	g := f.SliceZ(z)
	g.Apply(func(v float64) float64 {
		if v <= 0 {
			return math.Inf(-1)
		}
		return math.Log10(v)
	})
	lo, hi := g.Range()
	return SliceZNormalized(g, 0, cmap, lo, hi)
}

// UncertaintyOverlay renders a decompressed slice in grayscale with the
// cell-crossing probability blended in red on top — the presentation of
// Fig. 14c. probs must be the cell-centered probability field
// ((Nx−1)×(Ny−1)×(Nz−1)); cell z planes are aligned with voxel plane z.
func UncertaintyOverlay(decomp, probs *field.Field, z int) (*image.RGBA, error) {
	if probs.Nx != decomp.Nx-1 || probs.Ny != decomp.Ny-1 || probs.Nz != decomp.Nz-1 {
		return nil, fmt.Errorf("render: probability field %v does not match cells of %v", probs, decomp)
	}
	if z < 0 || z >= probs.Nz {
		return nil, fmt.Errorf("render: slice %d out of cell range", z)
	}
	base := SliceZ(decomp, z, Gray)
	for y := 0; y < probs.Ny; y++ {
		for x := 0; x < probs.Nx; x++ {
			p := probs.At(x, y, z)
			if p <= 0.01 {
				continue
			}
			if p > 1 {
				p = 1
			}
			// Blend red proportional to probability over the cell's voxels.
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					px, py := x+dx, decomp.Ny-1-(y+dy)
					c := base.RGBAAt(px, py)
					c.R = uint8(math.Min(255, float64(c.R)+p*200))
					c.G = uint8(float64(c.G) * (1 - 0.6*p))
					c.B = uint8(float64(c.B) * (1 - 0.6*p))
					base.SetRGBA(px, py, c)
				}
			}
		}
	}
	return base, nil
}

// SavePNG writes an image to the named file.
func SavePNG(img image.Image, path string) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := png.Encode(w, img); err != nil {
		return err
	}
	return w.Close()
}

func fieldMin(f *field.Field) float64 { lo, _ := f.Range(); return lo }
func fieldMax(f *field.Field) float64 { _, hi := f.Range(); return hi }
