package repro

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/field"
	"repro/internal/raceflag"
	"repro/internal/roi"
	"repro/internal/synth"
)

// nastyUniform is a non-cubic field with mixed magnitudes, NaN, ±Inf and -0
// samples, and exactly tied block ranges (constant blocks) — the field
// package roi's conversion test uses.
func nastyUniform(seed int64) *field.Field {
	rng := rand.New(rand.NewSource(seed))
	f := field.New(64, 32, 48)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for i := range f.Data {
		f.Data[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(10)-5))
		if rng.Intn(8192) == 0 {
			f.Data[i] = special[rng.Intn(len(special))]
		}
	}
	flat := field.New(16, 16, 16)
	for _, bc := range [][3]int{{0, 0, 0}, {3, 1, 2}, {1, 0, 1}} {
		f.SetBlock(bc[0]*16, bc[1]*16, bc[2]*16, flat)
	}
	return f
}

// plateauUniform is a Nyx field with a flat region far above every other
// sample: its blocks have range 0, so the ROI never keeps them, and level 1
// spans [0, plateau] only through the zeros of the ROI blocks it does not
// own — the one level whose dense zeros decide RelEB's bound.
func plateauUniform() *field.Field {
	f := synth.Generate(synth.Nyx, 32, 6)
	_, hi := f.Range()
	flat := field.New(16, 16, 16)
	flat.Fill(10 * hi)
	f.SetBlock(16, 0, 16, flat)
	return f
}

// errString is err's message, or "" for nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestUniformPathMatchesHierarchy: CompressTo and CompressUniform arrange a
// uniform field without building its hierarchy, and must write the bytes —
// and report the compression ratio — that CompressAMRTo writes for
// roi.Convert's hierarchy of it, or fail with the same error, for every
// arrangement, codec, ROI block size and fraction, and bound mode.
func TestUniformPathMatchesHierarchy(t *testing.T) {
	fields := []struct {
		name string
		f    *field.Field
	}{
		{"nyx", synth.Generate(synth.Nyx, 32, 3)},
		{"warpx", synth.Generate(synth.WarpX, 32, 4)},
		{"nasty", nastyUniform(1)},
		{"plateau", plateauUniform()},
	}
	codecs := []struct {
		name string
		opt  Options
	}{
		{"sz3mr", Options{}},
		{"sz3-nopad", Options{DisablePad: true}},
		{"sz2", Options{Compressor: SZ2}},
		{"zfp", Options{Compressor: ZFP}},
		{"flate", Options{Compressor: Flate}},
	}
	for _, fc := range fields {
		// The absolute bound is 1e-3 of the finite samples' range: nasty's
		// infinities make its RelEB bound infinite, which both paths reject.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range fc.f.Data {
			if !math.IsInf(v, 0) {
				lo, hi = field.FoldRange(lo, hi, v, v)
			}
		}
		for _, b := range []int{8, 16} {
			for _, frac := range []float64{0.1, 0.5, 0.97, 1} {
				for _, cc := range codecs {
					for _, arr := range []Arrangement{Linear, Stack, TAC, ZOrder1D} {
						for _, bound := range []string{"eb", "releb"} {
							opt := cc.opt
							opt.Arrangement, opt.ROIBlockB, opt.ROITopFrac, opt.Workers = arr, b, frac, 1
							if bound == "eb" {
								opt.EB = (hi - lo) * 1e-3
							} else {
								opt.RelEB = 1e-3
							}
							name := fmt.Sprintf("%s/b%d/top%g/%s/%s/%s", fc.name, b, frac, cc.name, arr, bound)
							fails := fc.name == "nasty" && bound == "releb"
							t.Run(name, func(t *testing.T) { checkUniformPath(t, fc.f, opt, fails) })
						}
					}
				}
			}
		}
	}
}

// checkUniformPath compares the uniform path with the hierarchy path for
// one field and option set; fails says the hierarchy path must reject it.
func checkUniformPath(t *testing.T, f *field.Field, opt Options, fails bool) {
	t.Helper()
	var want bytes.Buffer
	h, err := roi.Convert(f, roi.Options{BlockB: opt.ROIBlockB, TopFrac: opt.ROITopFrac})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantErr := CompressAMRTo(h, opt, &want)
	if (wantErr != nil) != fails {
		t.Fatalf("hierarchy path: error %v, want failure %v", wantErr, fails)
	}
	var got bytes.Buffer
	gotRes, gotErr := CompressTo(f, opt, &got)
	if errString(gotErr) != errString(wantErr) {
		t.Fatalf("CompressTo error %q, hierarchy path %q", errString(gotErr), errString(wantErr))
	}
	res, err := CompressUniform(f, opt)
	if errString(err) != errString(wantErr) {
		t.Fatalf("CompressUniform error %q, hierarchy path %q", errString(err), errString(wantErr))
	}
	if wantErr != nil {
		return
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("CompressTo wrote %d bytes differing from the hierarchy path's %d", got.Len(), want.Len())
	}
	if !bytes.Equal(res.Blob, want.Bytes()) {
		t.Fatalf("CompressUniform's blob (%d bytes) differs from the hierarchy path's %d", len(res.Blob), want.Len())
	}
	if math.Float64bits(gotRes.CompressionRatio) != math.Float64bits(wantRes.CompressionRatio) ||
		math.Float64bits(res.CompressionRatio) != math.Float64bits(wantRes.CompressionRatio) {
		t.Fatalf("compression ratio %v (CompressTo) / %v (CompressUniform), hierarchy path %v",
			gotRes.CompressionRatio, res.CompressionRatio, wantRes.CompressionRatio)
	}
}

// TestCompressToAllocBytes holds the uniform path to its allocation budget:
// a 64³ SZ3MR CompressTo allocates 0.71× the field's bytes, the arranged
// levels and the streams, since the codec's working arrays are pooled; it
// allocated 1.76× before they were. The hierarchy path it replaced — dense
// full-domain levels, then merged, then padded copies — allocated 3.57×.
func TestCompressToAllocBytes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	f := synth.Generate(synth.Nyx, 64, 1)
	opt := Options{RelEB: 1e-3, Workers: 1}
	run := func() {
		if _, err := CompressTo(f, opt, discard{}); err != nil {
			t.Fatal(err)
		}
	}
	// No collection from the warm-up on: a GC empties the codecs' pools,
	// which the warm-up fills. One P: a pooled array put on one P's private
	// slot is not found from another, which would make the count vary.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	var m0, m1 runtime.MemStats
	const n = 5
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	ratio := perOp / float64(f.Bytes())
	t.Logf("CompressTo(64³ Nyx, SZ3MR): %.0f bytes per op, %.2f× the field", perOp, ratio)
	const budget = 0.8
	if ratio > budget {
		t.Fatalf("CompressTo allocates %.2f× the field's bytes, budget %g×", ratio, budget)
	}
}

// TestTACDecodeAllocsPerStream: a full decode of the benchmark's 128³ Nyx
// field (its generator seed, RelEB 1e-3, ROI 16/0.5) written as TAC boxes
// makes at most two allocations per stream. The SZ3 working arrays come
// from a pool and each box decodes into a reused field, so what is left is
// per call: index, hierarchy and scratch fields. Before the SZ3 arrays were
// pooled, this decode made 272 allocations for 125 streams.
func TestTACDecodeAllocsPerStream(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("a 128³ field")
	}
	f := synth.Generate(synth.Nyx, 128, 20240924)
	var buf bytes.Buffer
	if _, err := CompressTo(f, Options{RelEB: 1e-3, ROIBlockB: 16, ROITopFrac: 0.5, Arrangement: TAC, Workers: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	r, err := OpenContainer(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	streams := len(r.Index().Streams)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := testing.AllocsPerRun(3, func() {
		if _, err := DecompressWorkers(blob, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecompressWorkers(blob, 1): %v allocations for %d streams", n, streams)
	if n > 2*float64(streams) {
		t.Errorf("TAC decode: %v allocations for %d streams, more than 2 per stream", n, streams)
	}
}

// discard is io.Discard without its pooled ReadFrom buffers.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestNonFiniteBoundRejected: a bound that resolves to NaN or ±Inf is an
// error on every compress entry point. A NaN EB used to pass the `<= 0`
// check and write a container Decompress rejects; an infinite one, or RelEB
// over a field holding +Inf, compressed at an infinite bound.
func TestNonFiniteBoundRejected(t *testing.T) {
	f := synth.Generate(synth.Nyx, 32, 5)
	inf := f.Clone()
	inf.Data[100] = math.Inf(1)
	h, err := roi.Convert(f, roi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hInf, err := roi.Convert(inf, roi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		f    *field.Field
		h    *Hierarchy
		opt  Options
	}{
		{"EB NaN", f, h, Options{EB: math.NaN()}},
		{"EB +Inf", f, h, Options{EB: math.Inf(1)}},
		{"RelEB NaN", f, h, Options{RelEB: math.NaN()}},
		{"RelEB over +Inf", inf, hInf, Options{RelEB: 1e-3}},
	} {
		var buf bytes.Buffer
		_, errTo := CompressTo(c.f, c.opt, &buf)
		_, errAMR := CompressAMRTo(c.h, c.opt, &buf)
		_, errU := CompressUniform(c.f, c.opt)
		for _, err := range []error{errTo, errAMR, errU} {
			if err == nil {
				t.Fatalf("%s: compressed", c.name)
			}
		}
	}
}
