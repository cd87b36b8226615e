package main

import (
	"hash/fnv"
	"math"
	"math/rand"

	"repro"
	"repro/internal/field"
	"repro/internal/synth"
)

// opClass names what one operation does; a phase times exactly one class.
type opClass int

const (
	opCompress opClass = iota // raw field → container
	opFull                    // container → every level
	opLevel                   // one level (coarse = L-1, fine = 0)
	opSlice                   // one z-slice of level 0
	opAnalyze                 // the paper's whole loop, post-processing and uncertainty on
	opIngest                  // mix only: replace a served container (serve workloads)
)

// opSpec is one scheduled operation. Every field is drawn from the seed
// before the clock starts; the program under test sees only the request.
type opSpec struct {
	class   opClass
	field   int // which container (serve workloads; scratchField = the PUT target of the compress phase)
	level   int
	k       int
	variant int // compress: the input; ingest: offset to a variant other than the stored one
}

const scratchField = -1

// refSeconds is the run length the phase shares and mix counts below are
// sized for; -seconds scales both.
const refSeconds = 30.0

// phaseOrder is the order the solo phases run in; mix follows them.
var phaseOrder = []string{"compress", "full", "coarse", "fine", "slice", "analyze"}

// phaseShare is the wall time of each solo phase as a share of -seconds:
// 2.4 s at 30 s, 3 s for fine. analyze, at 0.3–0.4 s an op, runs on until it
// has its twenty samples (6–8 s; see runPhase). With three served set-ups
// (5 s) and a mix sized to 3–4 s that fills -seconds.
var phaseShare = map[string]float64{
	"compress": 0.08, "full": 0.08, "coarse": 0.08, "fine": 0.10, "slice": 0.08, "analyze": 0.08,
}

// workload is one row of the benchmark's table: every workload runs the same
// op classes in the same phase order, through its own front door.
type workload struct {
	name string
	// serve selects the front door: a loopback HTTP server (true) or the
	// public repro package (false).
	serve   bool
	dataset synth.Dataset
	// amrFracs, when set, pre-builds the field into an AMR hierarchy with
	// these per-level block fractions; otherwise the input is uniform and the
	// ROI conversion is part of compression.
	amrFracs []float64
	opt      repro.Options
	// soloProcs is GOMAXPROCS during the solo phases: as many as one
	// closed-loop client can keep busy, which is one unless the library call
	// itself runs a worker pool. A second, idle P only adds cross-vCPU
	// wake-ups, the largest source of run-to-run noise on a small VM (warm
	// slice reads: quartile spread 38 % with two, 4.5 % with one). The mix
	// phase has two clients and always runs on two.
	soloProcs int
	// fields is the number of containers; cacheBytes the server's brick
	// cache budget (serve workloads).
	fields     int
	cacheBytes int64
	// mixUnit is the multiset of ops the mix phase repeats; mixUnits how
	// many times at refSeconds. The mix is a fixed count, not a fixed time,
	// so the allocation counters cover identical work on every commit.
	mixUnit  []opSpec
	mixUnits int
}

// ingestOpt is what mrserve's PUT applies by default: the paper's SZ3MR
// configuration at a relative bound of 1e-3.
var ingestOpt = repro.Options{RelEB: 1e-3, ROIBlockB: 16, ROITopFrac: 0.5}

func batchMix() []opSpec { return []opSpec{{class: opCompress}, {class: opFull}} }

// serveMix is 60 % level reads (mixSchedule spreads them evenly over the
// container's levels), 30 % slices and 10 % ingest-replace.
func serveMix() []opSpec {
	u := make([]opSpec, 0, 20)
	for i := 0; i < 6; i++ {
		u = append(u, opSpec{class: opLevel}, opSpec{class: opLevel}, opSpec{class: opSlice})
	}
	return append(u, opSpec{class: opIngest}, opSpec{class: opIngest})
}

// workloads is the table. README.md records why each row exists and which
// layers it exercises and bypasses.
func workloads() []*workload {
	sz3mr := ingestOpt
	sz3mr.Workers = 1
	return []*workload{
		{name: "batch_sz3mr", dataset: synth.Nyx, opt: sz3mr, soloProcs: 1, fields: 1,
			mixUnit: batchMix(), mixUnits: 40},
		{name: "batch_amr_sz2", dataset: synth.WarpX, amrFracs: []float64{0.3, 0.7},
			opt:       repro.Options{RelEB: 1e-3, Compressor: repro.SZ2, Arrangement: repro.TAC, Workers: 2},
			soloProcs: 2, fields: 1, mixUnit: batchMix(), mixUnits: 80},
		{name: "serve_cold", serve: true, dataset: synth.Nyx, opt: ingestOpt, soloProcs: 1, fields: 8, cacheBytes: 0,
			mixUnit: serveMix(), mixUnits: 10},
		{name: "serve_warm", serve: true, dataset: synth.Nyx, opt: ingestOpt, soloProcs: 1, fields: 8, cacheBytes: 512 << 20,
			mixUnit: serveMix(), mixUnits: 12},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// baseSeed generates the one synthetic field every input derives from. It is
// a constant, not -seed: compression ratio, PSNR and codec speed all depend
// on the data, and between two seeds of the generator the ratio alone moves
// by 25 %, which would bury any change to the code. -seed instead picks what
// a user could vary without changing the science: the unit the field is
// stored in (seedScale), which copy of the field lands under which id, which
// fields and slices are asked for and in what order.
const baseSeed = 20240924

// seedScale is the seeded factor in [1, 2) every sample is multiplied by.
// The error bound is relative to the value range, so the quantization codes,
// the ratio and the PSNR stay the same to rounding while every seed
// compresses different bits. (A seeded dither of a thousandth of the bound
// moved the ratio of one field by 0.3 %, three times its bound: it flips
// which blocks the ROI conversion keeps at full resolution.)
func seedScale(seed int64) float64 {
	return 1 + float64(rngFor(seed, "scale").Uint64()>>11)/(1<<53)
}

// deriveField makes variant v of the base field for a seed: a block-aligned
// periodic shift (fixed per v, so the set of variants has the same statistics
// for every seed), scaled by seedScale.
func deriveField(base *field.Field, blockB, v int, seed int64) *field.Field {
	n := base.Nx
	sh := func(m int) int { return blockB * (v * m % (n / blockB)) }
	sx, sy, sz := sh(3), sh(5), sh(7)
	out := field.New(n, n, n)
	c := seedScale(seed)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			src := base.Data[(((z+sz)%n)*n+(y+sy)%n)*n:][:n]
			dst := out.Data[(z*n+y)*n:][:n]
			copy(dst, src[sx:])
			copy(dst[n-sx:], src[:sx])
			for x := range dst {
				dst[x] *= c
			}
		}
	}
	return out
}

// rngFor returns an independent seeded stream per purpose, so drawing more
// ops in one phase never shifts the schedule of another.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// popularity assigns the mix's ops to containers: zipf(1.2) over eight fields
// (43, 19, 11, 8, 6, 5, 4, 4 % — in twentieths 9, 4, 2, 1, 1, 1, 1, 1), dealt
// out rather than drawn, so every seed replaces and re-reads each field
// equally often and the allocation counters compare like with like.
var popularity = []int{0, 1, 0, 2, 0, 1, 0, 3, 0, 4, 1, 0, 5, 0, 2, 6, 0, 1, 7, 0}

// fieldPicker draws container indices with zipf(1.2) popularity.
func fieldPicker(rng *rand.Rand, fields int) func() int {
	if fields <= 1 {
		return func() int { return 0 }
	}
	z := rand.NewZipf(rng, 1.2, 1, uint64(fields-1))
	return func() int { return int(z.Uint64()) }
}

// phaseOps returns the op generator of a solo phase.
func (w *workload) phaseOps(name string, seed int64, in *inputs) func() opSpec {
	levels, variants := in.levels, len(in.variants)
	rng := rngFor(seed, w.name+"/"+name)
	pick := fieldPicker(rng, w.fields)
	i := 0
	switch name {
	case "compress":
		return func() opSpec {
			i++
			o := opSpec{class: opCompress, variant: i % variants}
			if w.serve {
				o.field = scratchField
			}
			return o
		}
	case "full":
		return func() opSpec { return opSpec{class: opFull, field: pick()} }
	case "coarse":
		return func() opSpec { return opSpec{class: opLevel, field: pick(), level: levels - 1} }
	case "fine":
		return func() opSpec { return opSpec{class: opLevel, field: pick()} }
	case "slice":
		return func() opSpec { i++; return opSpec{class: opSlice, field: pick(), k: in.slicePlane(i, rng)} }
	default: // analyze
		return func() opSpec { return opSpec{class: opAnalyze} }
	}
}

// mixSchedule repeats the workload's mix unit and shuffles it. The multiset
// of ops and their order are the same for every seed; the seed decides which
// copy of the field each id holds (serveDoor.perm), the slice planes and what
// each ingest writes. A seeded order was tried first: which reads follow
// which replace, and which ops meet on the two clients, then differ from seed
// to seed, and with them the warm hit ratio (0.66–0.71) and the bytes
// allocated (quartile spread 3–4 % over ten seeds against 0.1–1.3 % for one
// seed repeated) — twice the bound the allocation counters are held to.
func (w *workload) mixSchedule(seed int64, seconds float64, in *inputs) []opSpec {
	// At least four units: per-op counters over a single unit (the smoke test's
	// run length asks for no more) are mostly the runtime's own allocations.
	units := max(4, int(math.Round(float64(w.mixUnits)*seconds/refSeconds)))
	var sched []opSpec
	dealt := map[opSpec]int{} // per kind of op, how many have been dealt a field
	levelOps := 0
	for u := 0; u < units; u++ {
		for _, o := range w.mixUnit {
			if o.class == opLevel {
				o.level = levelOps % in.levels
				levelOps++
			}
			kind := opSpec{class: o.class, level: o.level}
			o.field = popularity[dealt[kind]%len(popularity)] % w.fields
			dealt[kind]++
			sched = append(sched, o)
		}
	}
	rngFor(baseSeed, w.name+"/mix-order").Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
	rng := rngFor(seed, w.name+"/mix")
	slices := 0
	for i := range sched {
		switch o := &sched[i]; o.class {
		case opSlice:
			o.k = in.slicePlane(slices, rng)
			slices++
		case opIngest:
			o.variant = 1 + rng.Intn(len(in.variants)-1)
		}
	}
	return sched
}

// scheduleHash fingerprints everything the seed decides about the requests:
// the mix schedule and the head of every solo phase's op stream.
func (w *workload) scheduleHash(seed int64, seconds float64, in *inputs) uint64 {
	h := fnv.New64a()
	put := func(o opSpec) {
		h.Write([]byte{byte(o.class), byte(o.field), byte(o.level), byte(o.k), byte(o.k >> 8), byte(o.variant)})
	}
	for _, o := range w.mixSchedule(seed, seconds, in) {
		put(o)
	}
	for _, name := range phaseOrder {
		next := w.phaseOps(name, seed, in)
		h.Write([]byte(name))
		for i := 0; i < 32; i++ {
			put(next())
		}
	}
	return h.Sum64()
}
