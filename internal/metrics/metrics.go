// Package metrics implements the data-quality measures used throughout the
// paper's evaluation: MSE/PSNR, SSIM (on 2D slices and averaged over a
// volume), and compression ratio. The maximum pointwise error is
// field.MaxAbsDiff.
package metrics

import (
	"math"

	"repro/internal/field"
)

// MSE returns the mean squared error between two same-shaped fields.
func MSE(a, b *field.Field) float64 {
	if !a.SameShape(b) {
		panic("metrics: MSE shape mismatch")
	}
	s := 0.0
	for i, v := range a.Data {
		d := v - b.Data[i]
		s += d * d
	}
	return s / float64(a.Len())
}

// PSNR returns the peak signal-to-noise ratio in dB, using the value range of
// the reference field a as the peak, matching the convention of the SZ/ZFP
// literature (and of the paper): PSNR = 20·log10(range) − 10·log10(MSE).
// It returns +Inf for identical fields.
func PSNR(a, b *field.Field) float64 {
	mse := MSE(a, b)
	if mse == 0 {
		return math.Inf(1)
	}
	rng := a.ValueRange()
	if rng == 0 {
		rng = 1
	}
	return 20*math.Log10(rng) - 10*math.Log10(mse)
}

// CompressionRatio returns originalBytes/compressedBytes.
func CompressionRatio(originalBytes, compressedBytes int) float64 {
	if compressedBytes == 0 {
		return math.Inf(1)
	}
	return float64(originalBytes) / float64(compressedBytes)
}

// ssimWindow is the Gaussian window size used by SSIM (the standard 11×11,
// σ=1.5 window of Wang et al. 2004).
const ssimWindow = 11

var ssimKernel = gaussianKernel(ssimWindow, 1.5)

func gaussianKernel(n int, sigma float64) []float64 {
	k := make([]float64, n)
	c := float64(n-1) / 2
	sum := 0.0
	for i := range k {
		d := (float64(i) - c) / sigma
		k[i] = math.Exp(-0.5 * d * d)
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// SSIM2D computes the mean structural similarity index between two 2D slices
// (fields with Nz == 1), using the standard Gaussian-weighted 11×11 window
// and constants C1=(0.01·L)², C2=(0.03·L)² with L the value range of a.
func SSIM2D(a, b *field.Field) float64 {
	if !a.SameShape(b) {
		panic("metrics: SSIM2D shape mismatch")
	}
	if a.Nz != 1 {
		panic("metrics: SSIM2D requires Nz == 1")
	}
	l := a.ValueRange()
	if l == 0 {
		l = 1
	}
	c1 := (0.01 * l) * (0.01 * l)
	c2 := (0.03 * l) * (0.03 * l)

	nx, ny := a.Nx, a.Ny
	// Separable Gaussian filtering of a, b, a², b², a·b.
	mu1 := filter2D(a.Data, nx, ny)
	mu2 := filter2D(b.Data, nx, ny)
	sq1 := make([]float64, nx*ny)
	sq2 := make([]float64, nx*ny)
	s12 := make([]float64, nx*ny)
	for i := range sq1 {
		sq1[i] = a.Data[i] * a.Data[i]
		sq2[i] = b.Data[i] * b.Data[i]
		s12[i] = a.Data[i] * b.Data[i]
	}
	e11 := filter2D(sq1, nx, ny)
	e22 := filter2D(sq2, nx, ny)
	e12 := filter2D(s12, nx, ny)

	sum := 0.0
	for i := range mu1 {
		m1, m2 := mu1[i], mu2[i]
		v1 := e11[i] - m1*m1
		v2 := e22[i] - m2*m2
		cov := e12[i] - m1*m2
		s := ((2*m1*m2 + c1) * (2*cov + c2)) / ((m1*m1 + m2*m2 + c1) * (v1 + v2 + c2))
		sum += s
	}
	return sum / float64(len(mu1))
}

// filter2D applies the separable Gaussian SSIM kernel with clamped borders.
func filter2D(data []float64, nx, ny int) []float64 {
	half := ssimWindow / 2
	tmp := make([]float64, nx*ny)
	out := make([]float64, nx*ny)
	// Horizontal pass.
	for y := 0; y < ny; y++ {
		row := data[y*nx : (y+1)*nx]
		for x := 0; x < nx; x++ {
			s := 0.0
			for k := 0; k < ssimWindow; k++ {
				xi := clamp(x+k-half, 0, nx-1)
				s += ssimKernel[k] * row[xi]
			}
			tmp[y*nx+x] = s
		}
	}
	// Vertical pass.
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			s := 0.0
			for k := 0; k < ssimWindow; k++ {
				yi := clamp(y+k-half, 0, ny-1)
				s += ssimKernel[k] * tmp[yi*nx+x]
			}
			out[y*nx+x] = s
		}
	}
	return out
}

// SSIM3D computes the mean of SSIM2D over all z-slices of a volume — the
// usual way SSIM is reported for 3D scientific data (and cheap enough to run
// in benches). Both fields must have the same shape.
func SSIM3D(a, b *field.Field) float64 {
	if !a.SameShape(b) {
		panic("metrics: SSIM3D shape mismatch")
	}
	sum := 0.0
	for z := 0; z < a.Nz; z++ {
		sum += SSIM2D(a.SliceZ(z), b.SliceZ(z))
	}
	return sum / float64(a.Nz)
}

// SSIMCentral computes SSIM on the central z-slice only, matching the
// "one 2D slice" visual comparisons in the paper's figures.
func SSIMCentral(a, b *field.Field) float64 {
	z := a.Nz / 2
	return SSIM2D(a.SliceZ(z), b.SliceZ(z))
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
