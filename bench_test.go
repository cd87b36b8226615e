package repro_test

// Benchmark harness: one benchmark per paper table/figure (each wraps the
// corresponding experiment from internal/experiments and regenerates its
// rows), plus component micro-benchmarks for the compressors and analysis
// stages. Run everything with:
//
//	go test -bench=. -benchmem
//
// Experiment benchmarks default to a 32³ domain so the full suite stays
// tractable; set MRBENCH_SIZE=64 (multiples of 16, powers of two for
// spectra) to scale up.

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/mcubes"
	"repro/internal/metrics"
	"repro/internal/postproc"
	"repro/internal/reader"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/sz2"
	"repro/internal/sz3"
	"repro/internal/zfp"
)

func benchSize() int {
	if v := os.Getenv("MRBENCH_SIZE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 16 {
			return n
		}
	}
	return 32
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := experiments.Config{Size: benchSize(), Seed: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper artifact ---------------------------------------

func BenchmarkFig1AMRExample(b *testing.B)        { benchExperiment(b, "fig1") }
func BenchmarkFig2LevelDistribution(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig4ROI(b *testing.B)               { benchExperiment(b, "fig4") }
func BenchmarkFig5VisCompare(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig9PostVis(b *testing.B)           { benchExperiment(b, "fig9") }
func BenchmarkTable1Filters(b *testing.B)         { benchExperiment(b, "tab1") }
func BenchmarkFig12PostprocRD(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkTable2SZ2Post(b *testing.B)         { benchExperiment(b, "tab2") }
func BenchmarkFig14Uncertainty(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15InSituAMR(b *testing.B)        { benchExperiment(b, "fig15") }
func BenchmarkTable4OutputTime(b *testing.B)      { benchExperiment(b, "tab4") }
func BenchmarkTable5PostSZ2AMR(b *testing.B)      { benchExperiment(b, "tab5") }
func BenchmarkFig16WarpXVis(b *testing.B)         { benchExperiment(b, "fig16") }
func BenchmarkFig17AdaptiveRD(b *testing.B)       { benchExperiment(b, "fig17") }
func BenchmarkFig18OfflineRD(b *testing.B)        { benchExperiment(b, "fig18") }
func BenchmarkTable6PowerSpectrum(b *testing.B)   { benchExperiment(b, "tab6") }
func BenchmarkTable7PostMultiRes(b *testing.B)    { benchExperiment(b, "tab7") }
func BenchmarkTable8PostUniform(b *testing.B)     { benchExperiment(b, "tab8") }
func BenchmarkTable9Overhead(b *testing.B)        { benchExperiment(b, "tab9") }

// --- ablation benchmarks -----------------------------------------------------

func BenchmarkAblationPaddingKind(b *testing.B)  { benchExperiment(b, "abl-padkind") }
func BenchmarkAblationPadThreshold(b *testing.B) { benchExperiment(b, "abl-padthreshold") }
func BenchmarkAblationAlphaBeta(b *testing.B)    { benchExperiment(b, "abl-alphabeta") }
func BenchmarkAblationInterpolant(b *testing.B)  { benchExperiment(b, "abl-interp") }
func BenchmarkAblationSampling(b *testing.B)     { benchExperiment(b, "abl-sampling") }
func BenchmarkAblationArrangement(b *testing.B)  { benchExperiment(b, "abl-arrange") }
func BenchmarkAblationCurve(b *testing.B)        { benchExperiment(b, "abl-curve") }

// --- future-work extension benchmarks ----------------------------------------

func BenchmarkExtHaloPreservation(b *testing.B) { benchExperiment(b, "ext-halo") }
func BenchmarkExtVolumeRender(b *testing.B)     { benchExperiment(b, "ext-volren") }

// --- component micro-benchmarks ---------------------------------------------

func benchField(b *testing.B) *field.Field {
	b.Helper()
	return synth.Generate(synth.Nyx, benchSize(), 42)
}

func BenchmarkSZ3Compress(b *testing.B) {
	f := benchField(b)
	eb := f.ValueRange() * 1e-3
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sz3.Compress(nil, f, sz3.Options{EB: eb}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSZ3Decompress(b *testing.B) {
	f := benchField(b)
	eb := f.ValueRange() * 1e-3
	blob, err := sz3.Compress(nil, f, sz3.Options{EB: eb})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sz3.Decompress(nil, blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSZ2Compress(b *testing.B) {
	f := benchField(b)
	eb := f.ValueRange() * 1e-3
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sz2.Compress(nil, f, sz2.Options{EB: eb}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZFPCompress(b *testing.B) {
	f := benchField(b)
	eb := f.ValueRange() * 1e-3
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zfp.Compress(nil, f, zfp.Options{Tolerance: eb}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSZ3MRPipeline(b *testing.B) {
	f := benchField(b)
	h, err := grid.BuildAMR(f, 16, []float64{0.25, 0.75})
	if err != nil {
		b.Fatal(err)
	}
	eb := f.ValueRange() * 1e-3
	b.SetBytes(int64(h.PayloadBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CompressHierarchy(h, core.SZ3MROptions(eb)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPostProcess(b *testing.B) {
	f := benchField(b)
	eb := f.ValueRange() * 5e-3
	blob, err := zfp.Compress(nil, f, zfp.Options{Tolerance: eb})
	if err != nil {
		b.Fatal(err)
	}
	dec, err := zfp.Decompress(nil, blob)
	if err != nil {
		b.Fatal(err)
	}
	opt := postproc.Options{EB: eb, BlockSize: 4}
	a := postproc.Uniform(0.02)
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postproc.Process(dec, a, opt)
	}
}

func BenchmarkMarchingTetrahedra(b *testing.B) {
	f := benchField(b)
	iso := f.Mean() * 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mcubes.ExtractSurface(f, iso)
	}
}

func BenchmarkPowerSpectrum(b *testing.B) {
	f := benchField(b)
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft.PowerSpectrum(f, 9)
	}
}

func BenchmarkSSIM(b *testing.B) {
	f := benchField(b)
	g := f.Clone()
	g.Data[0] += 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.SSIMCentral(f, g)
	}
}

// --- core parallel-pipeline benchmarks ---------------------------------------
//
// These measure the tentpole claim directly: container compression /
// decompression over a ≥128³ AMR hierarchy, serial vs pooled. The TAC
// arrangement is used because it produces many independent streams (one per
// adjacency box), which is where per-stream parallelism pays off. Compare:
//
//	go test -bench 'CoreCompressWorkers|CoreDecompressWorkers' -benchtime 3x
//
// The Workers knob never changes the container bytes (see
// TestWorkersByteIdenticalContainers), only the wall clock.

func benchParallelHierarchy(b *testing.B) (*grid.Hierarchy, float64) {
	b.Helper()
	n := benchSize()
	if n < 128 {
		n = 128
	}
	f := synth.Generate(synth.Nyx, n, 42)
	h, err := grid.BuildAMR(f, 16, []float64{0.25, 0.75})
	if err != nil {
		b.Fatal(err)
	}
	return h, f.ValueRange() * 1e-3
}

func benchCoreCompressWorkers(b *testing.B, workers int) {
	h, eb := benchParallelHierarchy(b)
	opt := core.TACSZ3Options(eb)
	opt.Workers = workers
	prep, err := core.Prepare(h, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(h.PayloadBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.Compress(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreCompressWorkers1(b *testing.B)   { benchCoreCompressWorkers(b, 1) }
func BenchmarkCoreCompressWorkers4(b *testing.B)   { benchCoreCompressWorkers(b, 4) }
func BenchmarkCoreCompressWorkersMax(b *testing.B) { benchCoreCompressWorkers(b, 0) }

func benchCoreDecompressWorkers(b *testing.B, workers int) {
	h, eb := benchParallelHierarchy(b)
	c, err := core.CompressHierarchy(h, core.TACSZ3Options(eb))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(h.PayloadBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DecompressWorkers(c.Blob, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreDecompressWorkers1(b *testing.B)   { benchCoreDecompressWorkers(b, 1) }
func BenchmarkCoreDecompressWorkers4(b *testing.B)   { benchCoreDecompressWorkers(b, 4) }
func BenchmarkCoreDecompressWorkersMax(b *testing.B) { benchCoreDecompressWorkers(b, 0) }

// amrTACInput is the batch_amr_sz2 workload's shape and options: a 128³
// WarpX field built into 2-level AMR (62 TAC boxes; the workload's own
// field gives 55), SZ2 over the boxes, relative bound 1e-3, two workers.
// Run the pair with -cpu 2, the workload's GOMAXPROCS.
func amrTACInput(b *testing.B) (*grid.Hierarchy, repro.Options) {
	b.Helper()
	f := synth.Generate(synth.WarpX, 128, 1)
	h, err := grid.BuildAMR(f, 16, []float64{0.3, 0.7})
	if err != nil {
		b.Fatal(err)
	}
	return h, repro.Options{RelEB: 1e-3, Compressor: repro.SZ2, Arrangement: repro.TAC, Workers: 2}
}

// BenchmarkCompressAMRTAC is the workload's compress op: box extraction,
// a stream per box and the container write.
func BenchmarkCompressAMRTAC(b *testing.B) {
	h, opt := amrTACInput(b)
	b.SetBytes(int64(h.PayloadBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.CompressAMRTo(h, opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressAMRTAC is the workload's full-decode op.
func BenchmarkDecompressAMRTAC(b *testing.B) {
	h, opt := amrTACInput(b)
	var blob bytes.Buffer
	if _, err := repro.CompressAMRTo(h, opt, &blob); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(h.PayloadBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.DecompressWorkers(blob.Bytes(), opt.Workers); err != nil {
			b.Fatal(err)
		}
	}
}

// --- entropy-stage benchmarks -------------------------------------------------
//
// These measure the Huffman entropy stage in isolation on a realistic
// quantization-code stream: the codes sz3 produces for a 128³ Nyx field at a
// 1e-3 relative error bound. Throughput is reported over the raw int32
// payload; bench/ reports the same stage as huffman.encode_mb_s and
// huffman.decode_mb_s.

func huffmanBenchCodes(b *testing.B) []int32 {
	b.Helper()
	f := synth.Generate(synth.Nyx, 128, 42)
	eb := f.ValueRange() * 1e-3
	codes, err := sz3.Codes(f, sz3.Options{EB: eb})
	if err != nil {
		b.Fatal(err)
	}
	return codes
}

func BenchmarkHuffmanEncode(b *testing.B) {
	codes := huffmanBenchCodes(b)
	b.SetBytes(int64(len(codes) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		huffman.Encode(codes)
	}
}

func BenchmarkHuffmanDecode(b *testing.B) {
	codes := huffmanBenchCodes(b)
	enc := huffman.Encode(codes)
	b.SetBytes(int64(len(codes) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := huffman.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressToUniform is the batch_sz3mr set-up's library call: ROI
// selection, arrangement and SZ3MR compression of a uniform Nyx field, one
// worker.
func BenchmarkCompressToUniform(b *testing.B) {
	f := benchField(b)
	opt := repro.Options{RelEB: 1e-3, ROIBlockB: 16, ROITopFrac: 0.5, Workers: 1}
	b.SetBytes(int64(f.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.CompressTo(f, opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkROIConvert(b *testing.B) {
	f := benchField(b)
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.ConvertROI(f, 16, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serving benchmarks -------------------------------------------------------
//
// These measure the random-access path behind mrserve: ReadLevel through the
// v3 container index, uncached and cached. The served end-to-end numbers
// (coarse_ms, fine_ms, slice_ms) come from the serve workloads of
// bench/run.sh.

// benchServeContainer writes the benchmark container as benchKey into a
// fresh directory and returns that directory's store.
func benchServeContainer(b *testing.B) (store.Store, int) {
	b.Helper()
	f := synth.Generate(synth.Nyx, benchSize(), 42)
	h, err := grid.BuildAMR(f, 16, []float64{0.25, 0.35, 0.40})
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.CompressHierarchy(h, core.SZ3MROptions(f.ValueRange()*1e-3))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, benchKey), c.Blob, 0o644); err != nil {
		b.Fatal(err)
	}
	st, err := store.NewFS(dir)
	if err != nil {
		b.Fatal(err)
	}
	return st, len(h.Levels)
}

const benchKey = "bench.mrw"

func BenchmarkReadLevelCoarsestCold(b *testing.B) {
	st, levels := benchServeContainer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := reader.OpenStore(context.Background(), st, benchKey, reader.WithCache(nil))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadLevel(levels - 1); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

func BenchmarkReadLevelCoarsestCached(b *testing.B) {
	st, levels := benchServeContainer(b)
	r, err := reader.OpenStore(context.Background(), st, benchKey)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadLevel(levels - 1); err != nil {
			b.Fatal(err)
		}
	}
}
