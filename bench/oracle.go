package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"

	"repro"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/parallel"
	"repro/internal/synth"
)

// variant is one input of a workload together with everything the oracle
// knows about it. All of it is computed before any clock starts, through the
// library (never through the server), so a served response is checked against
// an independent decode of the same container.
type variant struct {
	// f is the uniform field; h the multi-resolution input as the compressor
	// sees it (the ROI conversion of f, or the pre-built AMR hierarchy). The
	// serve workloads keep them only for variant 0 (the analyze phase) and
	// hold the rest as PUT bodies.
	f *field.Field
	h *grid.Hierarchy
	// blob is the container the library builds from the input; the codecs
	// are deterministic, so every later compression must reproduce it.
	blob []byte
	// eb is the resolved absolute error bound.
	eb          float64
	ratio, psnr float64
	// body is f in the raw field wire format (the PUT payload); levelSum and
	// sliceSum are the CRC-32C of the bodies a server must answer with for
	// each level and for each z-slice of level 0.
	body     []byte
	levelSum []uint32
	sliceSum []uint32
}

// inputs is what a run generates from its seed.
type inputs struct {
	size     int
	levels   int
	rawBytes int64 // bytes of one uniform float64 field
	variants []*variant
	// planes lists the z-planes slice ops take, grouped by block layer: only
	// layers with a block the finest level owns (elsewhere a TAC container
	// decodes nothing at all). The planes of one layer cross the same boxes
	// and cost the same; different layers can differ tenfold, so slice ops
	// visit the layers in turn and every stretch of a phase sees the same
	// blend.
	planes [][]int
}

// slicePlane is the plane of the i-th slice op: layers in turn, the plane
// within the layer drawn from rng.
func (in *inputs) slicePlane(i int, rng *rand.Rand) int {
	layer := in.planes[i%len(in.planes)]
	return layer[rng.Intn(len(layer))]
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func fieldSum(f *field.Field) uint32 {
	h := crc32.New(castagnoli)
	f.WriteTo(h)
	return h.Sum32()
}

// maxAbsDiff is the largest sample difference between two same-shaped
// fields (+Inf when the shapes differ, so a wrong shape fails any bound).
func maxAbsDiff(a, b *field.Field) float64 {
	if a == nil || b == nil || !a.SameShape(b) {
		return math.Inf(1)
	}
	return a.MaxAbsDiff(b)
}

// checkHierarchy verifies every level of a decoded hierarchy against the
// input within bound. Samples outside a level's owned blocks are zero on
// both sides.
func checkHierarchy(got, want *grid.Hierarchy, bound float64) error {
	if got == nil || len(got.Levels) != len(want.Levels) {
		return fmt.Errorf("oracle: decoded hierarchy has the wrong level count")
	}
	for l := range want.Levels {
		if d := maxAbsDiff(got.Levels[l].Data, want.Levels[l].Data); d > bound {
			return fmt.Errorf("oracle: level %d max abs error %g exceeds bound %g", l, d, bound)
		}
	}
	return nil
}

// verifyContainer runs the library's scrub over a container.
func verifyContainer(blob []byte) error {
	r, err := repro.OpenContainer(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return err
	}
	res, err := repro.Verify(context.Background(), r)
	if err != nil {
		return err
	}
	if !res.OK() {
		return fmt.Errorf("oracle: container scrub found %d damaged streams", len(res.Faults))
	}
	return nil
}

// compressInput is the library front door of the compress op class.
func (w *workload) compressInput(v *variant, opt repro.Options, out io.Writer) (*repro.WriteResult, error) {
	if w.amrFracs != nil {
		return repro.CompressAMRTo(v.h, opt, out)
	}
	return repro.CompressTo(v.f, opt, out)
}

// makeInputs generates the workload's fields from the seed and builds the
// oracle for each: container, bound, ratio, PSNR, and for served fields the
// expected bytes of every level and slice.
func makeInputs(w *workload, size int, seed int64) (*inputs, error) {
	base := synth.Generate(w.dataset, size, baseSeed)
	const blockB = 16
	in := &inputs{size: size, rawBytes: int64(base.Bytes()), variants: make([]*variant, w.fields)}
	_, err := parallel.MapErrWorkers(w.fields, 2, func(i int) (struct{}, error) {
		v := &variant{f: deriveField(base, blockB, i, seed)}
		in.variants[i] = v
		return struct{}{}, w.buildOracle(v)
	})
	if err != nil {
		return nil, err
	}
	h := in.variants[0].h
	in.levels = len(h.Levels)
	nbx, nby, nbz := h.NumBlocks()
	for bz := 0; bz < nbz; bz++ {
		owned := false
		for i := bz * nbx * nby; i < (bz+1)*nbx*nby; i++ {
			owned = owned || h.Levels[0].Owned[i]
		}
		if !owned {
			continue
		}
		var layer []int
		for z := bz * h.BlockB; z < (bz+1)*h.BlockB; z++ {
			layer = append(layer, z)
		}
		in.planes = append(in.planes, layer)
	}
	if !w.serve {
		return in, nil
	}
	for i, v := range in.variants {
		var body bytes.Buffer
		body.Grow(24 + v.f.Bytes())
		v.f.WriteTo(&body)
		v.body = body.Bytes()
		if i > 0 {
			v.f, v.h = nil, nil
		}
	}
	return in, nil
}

func (w *workload) buildOracle(v *variant) error {
	var err error
	ref := v.f
	if w.amrFracs != nil {
		if v.h, err = grid.BuildAMR(v.f, 16, w.amrFracs); err != nil {
			return err
		}
		ref = v.h.Flatten()
	} else if v.h, err = repro.ConvertROI(v.f, w.opt.ROIBlockB, w.opt.ROITopFrac); err != nil {
		return err
	}
	var buf bytes.Buffer
	wr, err := w.compressInput(v, w.opt, &buf)
	if err != nil {
		return err
	}
	v.blob, v.ratio = buf.Bytes(), wr.CompressionRatio
	if err := verifyContainer(v.blob); err != nil {
		return err
	}
	// A reader with its private brick cache: the 128 slice reads below then
	// cost one decode, not 128.
	r, err := repro.OpenContainer(bytes.NewReader(v.blob), int64(len(v.blob)))
	if err != nil {
		return err
	}
	v.eb = r.Options().EB
	got, err := repro.Decompress(v.blob)
	if err != nil {
		return err
	}
	if err := checkHierarchy(got, v.h, v.eb); err != nil {
		return err
	}
	v.psnr = repro.PSNR(ref, got.Flatten())
	if !w.serve {
		return nil
	}
	for l := range v.h.Levels {
		lf, err := r.ReadLevel(l)
		if err != nil {
			return err
		}
		if d := maxAbsDiff(lf, v.h.Levels[l].Data); d > v.eb {
			return fmt.Errorf("oracle: library ReadLevel(%d) error %g exceeds bound %g", l, d, v.eb)
		}
		v.levelSum = append(v.levelSum, fieldSum(lf))
	}
	for k := 0; k < v.f.Nz; k++ {
		sf, err := r.ReadSlice(repro.AxisZ, k, 0)
		if err != nil {
			return err
		}
		v.sliceSum = append(v.sliceSum, fieldSum(sf))
	}
	return nil
}
