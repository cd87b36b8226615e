// Package field provides the fundamental 3D scalar field type used across
// the workflow: a dense, row-major (x fastest) array of float64 samples with
// helpers for block extraction, resampling, and basic statistics.
//
// All compressors, layout transforms, and analysis passes in this repository
// operate on Field values. A Field is deliberately a thin wrapper around a
// flat []float64 so that hot loops can index f.Data directly.
package field

import (
	"fmt"
	"math"
)

// Field is a dense 3D scalar field of size Nx×Ny×Nz stored row-major with x
// varying fastest: Data[x + Nx*(y + Ny*z)].
type Field struct {
	Nx, Ny, Nz int
	Data       []float64
}

// New allocates a zero-valued field of the given dimensions.
// It panics if any dimension is non-positive.
func New(nx, ny, nz int) *Field {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("field: invalid dimensions %dx%dx%d", nx, ny, nz))
	}
	return &Field{Nx: nx, Ny: ny, Nz: nz, Data: make([]float64, nx*ny*nz)}
}

// Reuse returns an nx×ny×nz field built on dst: dst itself, reshaped, when
// dst is not nil, keeping its array when that is large enough; a New field
// otherwise. A kept array holds whatever dst held, so the caller must write
// every sample. It panics if any dimension is non-positive.
func Reuse(dst *Field, nx, ny, nz int) *Field {
	if dst == nil || nx <= 0 || ny <= 0 || nz <= 0 {
		return New(nx, ny, nz)
	}
	n := nx * ny * nz
	if cap(dst.Data) < n {
		dst.Data = make([]float64, n)
	}
	dst.Nx, dst.Ny, dst.Nz, dst.Data = nx, ny, nz, dst.Data[:n]
	return dst
}

// Len returns the total number of samples.
func (f *Field) Len() int { return f.Nx * f.Ny * f.Nz }

// Bytes returns the uncompressed size in bytes (8 bytes per sample).
func (f *Field) Bytes() int { return f.Len() * 8 }

// Index returns the flat index of (x, y, z).
func (f *Field) Index(x, y, z int) int { return x + f.Nx*(y+f.Ny*z) }

// At returns the sample at (x, y, z).
func (f *Field) At(x, y, z int) float64 { return f.Data[x+f.Nx*(y+f.Ny*z)] }

// Set stores v at (x, y, z).
func (f *Field) Set(x, y, z int, v float64) { f.Data[x+f.Nx*(y+f.Ny*z)] = v }

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	g := New(f.Nx, f.Ny, f.Nz)
	copy(g.Data, f.Data)
	return g
}

// SameShape reports whether g has identical dimensions.
func (f *Field) SameShape(g *Field) bool {
	return f.Nx == g.Nx && f.Ny == g.Ny && f.Nz == g.Nz
}

// Range returns the minimum and maximum sample values. For an empty field it
// returns (0, 0); NaNs are ignored unless all samples are NaN.
func (f *Field) Range() (min, max float64) {
	return FinishRange(scanRange(f.Data, math.Inf(1), math.Inf(-1)))
}

// BlockExtremes scans the region of size (bx,by,bz) anchored at (x0,y0,z0)
// in place — no block is copied out — for its minimum and maximum, with
// Range's NaN rule but before FinishRange: an empty or all-NaN region gives
// (+Inf, −Inf). Extremes of disjoint regions combine with FoldRange into
// the extremes of their union, so a range over many blocks is assembled
// from per-block scans. The region must lie inside the field.
func (f *Field) BlockExtremes(x0, y0, z0, bx, by, bz int) (min, max float64) {
	f.checkRegion(x0, y0, z0, bx, by, bz)
	min, max = math.Inf(1), math.Inf(-1)
	for z := 0; z < bz; z++ {
		for y := 0; y < by; y++ {
			i := f.Index(x0, y0+y, z0+z)
			min, max = scanRange(f.Data[i:i+bx], min, max)
		}
	}
	return min, max
}

// scanRange folds the samples of row into a running (min, max). NaNs drop
// out by themselves: both comparisons are false for them.
func scanRange(row []float64, min, max float64) (float64, float64) {
	for _, v := range row {
		min, max = FoldRange(min, max, v, v)
	}
	return min, max
}

// FoldRange folds the extremes (lo, hi) of more samples into a running
// (min, max), with the comparisons a scan of those samples makes.
func FoldRange(min, max, lo, hi float64) (float64, float64) {
	if lo < min {
		min = lo
	}
	if hi > max {
		max = hi
	}
	return min, max
}

// FinishRange maps the untouched running range of an empty or all-NaN scan
// to (0, 0).
func FinishRange(min, max float64) (float64, float64) {
	if math.IsInf(min, 1) {
		return 0, 0
	}
	return min, max
}

// ValueRange returns max-min, the "range" statistic used by the ROI selector.
func (f *Field) ValueRange() float64 {
	min, max := f.Range()
	return max - min
}

// Mean returns the arithmetic mean of all samples.
func (f *Field) Mean() float64 {
	if f.Len() == 0 {
		return 0
	}
	s := 0.0
	for _, v := range f.Data {
		s += v
	}
	return s / float64(f.Len())
}

// checkRegion panics unless the region of size (bx,by,bz) anchored at
// (x0,y0,z0) is non-negative and lies inside the field.
func (f *Field) checkRegion(x0, y0, z0, bx, by, bz int) {
	if x0 < 0 || y0 < 0 || z0 < 0 || bx < 0 || by < 0 || bz < 0 ||
		x0+bx > f.Nx || y0+by > f.Ny || z0+bz > f.Nz {
		panic(fmt.Sprintf("field: block %dx%dx%d at (%d,%d,%d) does not fit in %dx%dx%d",
			bx, by, bz, x0, y0, z0, f.Nx, f.Ny, f.Nz))
	}
}

// CopyBlock copies the region of size (bx,by,bz) anchored at (sx,sy,sz) in
// src to the region anchored at (dx,dy,dz) in dst, one row copy per (y,z),
// each field indexed at its own strides. Both regions must lie inside their
// fields and must not overlap.
func CopyBlock(dst *Field, dx, dy, dz int, src *Field, sx, sy, sz, bx, by, bz int) {
	dst.checkRegion(dx, dy, dz, bx, by, bz)
	src.checkRegion(sx, sy, sz, bx, by, bz)
	for z := 0; z < bz; z++ {
		for y := 0; y < by; y++ {
			d := dst.Index(dx, dy+y, dz+z)
			s := src.Index(sx, sy+y, sz+z)
			copy(dst.Data[d:d+bx], src.Data[s:s+bx])
		}
	}
}

// SubBlock copies the region of size (bx,by,bz) anchored at (x0,y0,z0) into a
// new field. The region is clamped to the field bounds; the returned block
// has the clamped dimensions.
func (f *Field) SubBlock(x0, y0, z0, bx, by, bz int) *Field {
	if x0 < 0 || y0 < 0 || z0 < 0 {
		panic("field: negative block origin")
	}
	cx := minInt(bx, f.Nx-x0)
	cy := minInt(by, f.Ny-y0)
	cz := minInt(bz, f.Nz-z0)
	if cx <= 0 || cy <= 0 || cz <= 0 {
		panic(fmt.Sprintf("field: block origin (%d,%d,%d) outside field %dx%dx%d", x0, y0, z0, f.Nx, f.Ny, f.Nz))
	}
	b := New(cx, cy, cz)
	CopyBlock(b, 0, 0, 0, f, x0, y0, z0, cx, cy, cz)
	return b
}

// SetBlock writes block b into the field anchored at (x0,y0,z0). The block
// must fit entirely inside the field.
func (f *Field) SetBlock(x0, y0, z0 int, b *Field) {
	CopyBlock(f, x0, y0, z0, b, 0, 0, 0, b.Nx, b.Ny, b.Nz)
}

// DownsampleBlock2 writes the region of size (bx,by,bz) anchored at
// (sx,sy,sz) in src at half resolution per axis into the region of half
// that size (ceil division) anchored at (dx,dy,dz) in dst: each coarse
// sample is the mean of its (up to) 2×2×2 fine children — the restriction
// operator used for non-ROI regions and for building coarse AMR levels from
// fine data. Children are summed from zero in z, y, x order, so every mean
// carries the same rounding wherever the region sits. Both regions must lie
// inside their fields and must not overlap.
func DownsampleBlock2(dst *Field, dx, dy, dz int, src *Field, sx, sy, sz, bx, by, bz int) {
	nx, ny, nz := (bx+1)/2, (by+1)/2, (bz+1)/2
	dst.checkRegion(dx, dy, dz, nx, ny, nz)
	src.checkRegion(sx, sy, sz, bx, by, bz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			// The (up to) four fine rows under this coarse row, in
			// summation order.
			var rows [4][]float64
			nr := 0
			for fz := 2 * z; fz < 2*z+2 && fz < bz; fz++ {
				for fy := 2 * y; fy < 2*y+2 && fy < by; fy++ {
					i := src.Index(sx, sy+fy, sz+fz)
					rows[nr] = src.Data[i : i+bx]
					nr++
				}
			}
			o := dst.Index(dx, dy+y, dz+z)
			out := dst.Data[o : o+nx]
			x := 0
			if nr == 4 {
				r0, r1, r2, r3 := rows[0], rows[1], rows[2], rows[3]
				for ; x < bx/2; x++ {
					sum := 0.0
					sum += r0[2*x]
					sum += r0[2*x+1]
					sum += r1[2*x]
					sum += r1[2*x+1]
					sum += r2[2*x]
					sum += r2[2*x+1]
					sum += r3[2*x]
					sum += r3[2*x+1]
					out[x] = sum / 8
				}
			}
			for ; x < nx; x++ {
				sum, n := 0.0, 0
				for _, r := range rows[:nr] {
					for fx := 2 * x; fx < 2*x+2 && fx < bx; fx++ {
						sum += r[fx]
						n++
					}
				}
				out[x] = sum / float64(n)
			}
		}
	}
}

// Upsample2 returns a field of exactly (nx,ny,nz) samples reconstructed from
// f by trilinear interpolation, where f is treated as a 2×-coarse version
// (cell-centred). It is the prolongation operator matching DownsampleBlock2.
func (f *Field) Upsample2(nx, ny, nz int) *Field {
	g := New(nx, ny, nz)
	// Map fine coordinate x to coarse sample space: coarse sample i covers
	// fine samples 2i and 2i+1, so fine x corresponds to coarse (x-0.5)/2.
	for z := 0; z < nz; z++ {
		cz, wz := splitCoord(z, f.Nz)
		for y := 0; y < ny; y++ {
			cy, wy := splitCoord(y, f.Ny)
			for x := 0; x < nx; x++ {
				cx, wx := splitCoord(x, f.Nx)
				v := 0.0
				for dz := 0; dz < 2; dz++ {
					pz := clampInt(cz+dz, 0, f.Nz-1)
					fz := lerpWeight(wz, dz)
					for dy := 0; dy < 2; dy++ {
						py := clampInt(cy+dy, 0, f.Ny-1)
						fy := lerpWeight(wy, dy)
						for dx := 0; dx < 2; dx++ {
							px := clampInt(cx+dx, 0, f.Nx-1)
							fx := lerpWeight(wx, dx)
							v += f.At(px, py, pz) * fx * fy * fz
						}
					}
				}
				g.Set(x, y, z, v)
			}
		}
	}
	return g
}

// splitCoord maps a fine coordinate to the coarse base index and the
// fractional weight toward the next coarse sample, for cell-centred 2×
// coarsening.
func splitCoord(fine, ncoarse int) (base int, frac float64) {
	c := (float64(fine) - 0.5) / 2.0
	base = int(math.Floor(c))
	frac = c - float64(base)
	if base < 0 {
		base, frac = 0, 0
	}
	if base >= ncoarse-1 {
		base, frac = ncoarse-1, 0
	}
	return base, frac
}

func lerpWeight(frac float64, d int) float64 {
	if d == 0 {
		return 1 - frac
	}
	return frac
}

// SliceZ extracts the 2D slice at depth z as a Nx×Ny×1 field.
func (f *Field) SliceZ(z int) *Field {
	if z < 0 || z >= f.Nz {
		panic(fmt.Sprintf("field: slice z=%d out of range [0,%d)", z, f.Nz))
	}
	s := New(f.Nx, f.Ny, 1)
	copy(s.Data, f.Data[z*f.Nx*f.Ny:(z+1)*f.Nx*f.Ny])
	return s
}

// Fill sets every sample to v.
func (f *Field) Fill(v float64) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// Apply replaces every sample x with fn(x).
func (f *Field) Apply(fn func(float64) float64) {
	for i, v := range f.Data {
		f.Data[i] = fn(v)
	}
}

// AddScaled adds s*g to f in place. The fields must have the same shape.
func (f *Field) AddScaled(s float64, g *Field) {
	if !f.SameShape(g) {
		panic("field: AddScaled shape mismatch")
	}
	for i := range f.Data {
		f.Data[i] += s * g.Data[i]
	}
}

// Equal reports whether two fields have identical shape and bit-identical
// sample values.
func (f *Field) Equal(g *Field) bool {
	if !f.SameShape(g) {
		return false
	}
	for i, v := range f.Data {
		if v != g.Data[i] && !(math.IsNaN(v) && math.IsNaN(g.Data[i])) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the L∞ distance between two same-shaped fields.
func (f *Field) MaxAbsDiff(g *Field) float64 {
	if !f.SameShape(g) {
		panic("field: MaxAbsDiff shape mismatch")
	}
	m := 0.0
	for i, v := range f.Data {
		d := math.Abs(v - g.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}

func (f *Field) String() string {
	return fmt.Sprintf("Field(%dx%dx%d)", f.Nx, f.Ny, f.Nz)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
