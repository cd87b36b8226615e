// Package parallelcomp provides OpenMP-style chunked parallel compression:
// the field is split into z-slabs compressed concurrently by one
// codec.Codec, each into its own stream. This mirrors how the paper
// parallelizes SZ2/ZFP with OpenMP and reproduces its side effect — "using
// OpenMP with SZ2 can lead to a lower compression ratio due to the
// embarrassingly parallel" decomposition (§IV-C): each slab carries its own
// entropy tables and loses cross-slab prediction context. The slab streams
// are returned as they are; nothing frames them into a stored format.
package parallelcomp

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/field"
	"repro/internal/parallel"
)

// Compress splits f into up to `workers` contiguous z-slabs, as even as
// possible, and compresses them concurrently with cd under p, returning one
// stream per slab in z order. workers ≤ 1 degenerates to a single slab
// (serial semantics and serial compression ratio); workers above Nz clamp
// to one slab per plane.
func Compress(f *field.Field, cd codec.Codec, p codec.Params, workers int) ([][]byte, error) {
	workers = max(1, min(workers, f.Nz))
	return parallel.MapErrWorkers(workers, workers, func(i int) ([]byte, error) {
		lo, hi := i*f.Nz/workers, (i+1)*f.Nz/workers
		b, err := cd.Compress(f.SubBlock(0, 0, lo, f.Nx, f.Ny, hi-lo), p)
		if err != nil {
			return nil, fmt.Errorf("parallelcomp: slab %d: %w", i, err)
		}
		return b, nil
	})
}

// Decompress decodes the slab streams concurrently with cd and stacks them
// along z. Every slab must share the first slab's Nx and Ny.
func Decompress(slabs [][]byte, cd codec.Codec) (*field.Field, error) {
	if len(slabs) == 0 {
		return nil, fmt.Errorf("parallelcomp: no slabs")
	}
	dec, err := parallel.MapErrWorkers(len(slabs), len(slabs), func(i int) (*field.Field, error) {
		s, err := cd.Decompress(slabs[i])
		if err != nil {
			return nil, fmt.Errorf("parallelcomp: slab %d: %w", i, err)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	nx, ny, nz := dec[0].Nx, dec[0].Ny, 0
	for i, s := range dec {
		if s.Nx != nx || s.Ny != ny {
			return nil, fmt.Errorf("parallelcomp: slab %d shape %v inconsistent with %dx%d", i, s, nx, ny)
		}
		nz += s.Nz
	}
	out := field.New(nx, ny, nz)
	z := 0
	for _, s := range dec {
		out.SetBlock(0, 0, z, s)
		z += s.Nz
	}
	return out, nil
}
