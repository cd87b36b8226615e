package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is what the command line decides about one run.
type runConfig struct {
	seed    int64
	seconds float64 // wall time of everything timed: set-ups, solo phases and mix
	trace   bool
	size    int    // field edge; 128 except in the smoke test
	workDir string // everything the run writes goes under here
}

// Set-up is run and timed at least minSetups times and until setupShare of
// -seconds has gone into it (a batch set-up takes a twentieth of a second, a
// served one nearly two), maxSetups times at most. setup_s is the fastest of
// them: the quiet median with every set-up a window of its own. Over six runs
// of batch_amr_sz2 (40 set-ups each, two workers on two vCPUs) the fastest
// ranged over 6 %, the lowest of four window medians over 19 %, the plain
// median over 14 %.
const (
	minSetups  = 3
	maxSetups  = 40
	setupShare = 0.05
)

// result is everything one run of one workload measured.
type result struct {
	Workload string
	Seed     int64
	Host     hostInfo
	Schedule uint64             // fingerprint of everything the seed decided about the requests
	Samples  map[string]int     // successful ops per phase
	Metrics  map[string]float64 // every metric measured, end-to-end and per-layer, by name
	counts
}

// runWorkload runs every phase of one workload in order: inputs and oracle,
// set-up, the solo phases, mix and — on a traced run — the traced pass.
func runWorkload(w *workload, cfg runConfig) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Host: fingerprint(),
		Samples: map[string]int{}, Metrics: map[string]float64{}}
	steal0, ticks0 := cpuTicks()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	in, err := makeInputs(w, cfg.size, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	nv := len(in.variants)
	res.Schedule = w.scheduleHash(cfg.seed, cfg.seconds, in)

	var d door
	if w.serve {
		d = newServeDoor(w, in, cfg.workDir, cfg.seed)
	} else {
		d = &batchDoor{w: w, v: in.variants[0]}
	}
	defer d.close()
	// At most two threads of execution (the reference host has two vCPUs);
	// fewer where fewer can be kept busy, see workload.soloProcs.
	maxProcs := min(2, runtime.NumCPU())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(w.soloProcs, maxProcs)))
	// A traced run spends half its time on the untraced phases (the traced
	// pass is compared against them) and the rest on spans and layer probes.
	// Its result line carries no setup_s, so it sets up once.
	seconds, least, setupTime := cfg.seconds, minSetups, setupShare*cfg.seconds
	if cfg.trace {
		seconds, least, setupTime = seconds/2, 1, 0
	}
	calibs := []float64{calibMBs()}
	var setups []float64
	for spent := 0.0; len(setups) < least || (spent < setupTime && len(setups) < maxSetups); {
		runtime.GC()
		t0 := time.Now()
		if err := d.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += time.Since(t0).Seconds()
	}
	phases := map[string]*phase{}
	sd, _ := d.(*serveDoor)
	// Brick-cache counters at four points: around the read phases (full to
	// slice) and around mix.
	var cacheAt [4]map[string]float64
	scrape := func(i int) error {
		if sd == nil {
			return nil
		}
		var err error
		cacheAt[i], err = sd.scrape(cacheCounters...)
		return err
	}
	for _, name := range phaseOrder {
		switch name {
		case "full":
			err = scrape(0)
		case "analyze":
			err = scrape(1)
		}
		if err != nil {
			return nil, err
		}
		warmups, minSamples := 3, minPhaseSamples
		if name == "analyze" {
			warmups = 1 // a third of a second an op, on code the earlier phases already warmed
			if w.serve || cfg.trace {
				// The server has no front door for the analysis loop; a served
				// workload reports the library call only because every workload
				// must report every metric, and spends no more than the phase's
				// share on it. Nor does a traced run, which has no spans for it.
				minSamples = 0
			}
		}
		calibs = append(calibs, calibMBs())
		dur := time.Duration(phaseShare[name] * seconds * float64(time.Second))
		ph := runPhase(in.rawBytes, dur, warmups, minSamples, &res.counts,
			w.phaseOps(name, cfg.seed, in),
			func(o opSpec) (time.Duration, error) { return d.do(0, o) })
		phases[name] = ph
		res.Samples[name] = len(ph.samples)
	}

	if cfg.trace {
		// Before mix: the replays must know which container each field holds.
		if err := tracedPass(w, cfg, in, d, phases, res); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	if err := scrape(2); err != nil {
		return nil, err
	}
	calibs = append(calibs, calibMBs())
	runtime.GOMAXPROCS(maxProcs)
	mix := runMix(d, w.mixSchedule(cfg.seed, seconds, in), &res.counts)
	res.Samples["mix"] = mix.ops
	if err := scrape(3); err != nil {
		return nil, err
	}

	m := res.Metrics
	m["setup_s"] = slices.Min(setups)
	m["compress_mb_s"] = phases["compress"].mbPerS()
	m["decompress_mb_s"] = phases["full"].mbPerS()
	m["workflow_mb_s"] = phases["analyze"].mbPerS()
	m["coarse_ms"] = phases["coarse"].quietMs()
	m["fine_ms"] = phases["fine"].quietMs()
	m["slice_ms"] = phases["slice"].quietMs()
	m["ops_per_s"] = float64(mix.ops) / mix.wall.Seconds()
	m["allocs_per_op"] = float64(mix.mallocs) / float64(mix.ops)
	m["alloc_kb_per_op"] = float64(mix.allocBytes) / float64(mix.ops) / 1e3
	var ratioNum, ratioDen, psnr float64
	for _, v := range in.variants {
		// raw payload / container bytes, summed over the containers.
		ratioNum += v.ratio * float64(len(v.blob))
		ratioDen += float64(len(v.blob))
		psnr += v.psnr
	}
	m["compression_ratio"] = ratioNum / ratioDen
	m["psnr_db"] = psnr / float64(nv)

	for _, name := range phaseOrder[:5] {
		s := phases[name].samples
		m["client."+name+"_p50_ms"] = median(s) * 1e3
		m["client."+name+"_p99_ms"] = percentile(s, 0.99) * 1e3
		m["client."+name+"_n"] = float64(len(s))
	}
	m["host.calib_mb_s"] = median(calibs)
	if sd != nil {
		m["cache.hit_ratio"] = hitRatio(cacheAt[1], cacheAt[0])
		m["cache.mix_hit_ratio"] = hitRatio(cacheAt[3], cacheAt[2])
		m["cache.evictions"] = cacheAt[3][cacheCounters[2]] - cacheAt[2][cacheCounters[2]]
		m["serve.bytes_out_per_op"] = float64(sd.bytesOut.Load()-mix.bytesOutBefore) / float64(mix.ops)
		m["serve.status_5xx"] = float64(sd.status5xx.Load())
		m["serve.degraded"] = float64(sd.degraded.Load())
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m["gc.cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["gc.pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	steal1, ticks1 := cpuTicks()
	if ticks1 > ticks0 {
		m["host.steal_pct"] = 100 * (steal1 - steal0) / (ticks1 - ticks0)
	}
	m["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// cacheCounters are the brick-cache series scraped from /metrics.
var cacheCounters = []string{"mrserve_cache_hits_total", "mrserve_cache_misses_total", "mrserve_cache_evictions_total"}

// hitRatio is hits / lookups between two scrapes (0 when nothing was looked
// up: a disabled cache counts no lookups at all).
func hitRatio(after, before map[string]float64) float64 {
	hits := after[cacheCounters[0]] - before[cacheCounters[0]]
	misses := after[cacheCounters[1]] - before[cacheCounters[1]]
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// mixResult is what the mix phase measured.
type mixResult struct {
	ops                 int
	wall                time.Duration
	mallocs, allocBytes uint64
	bytesOutBefore      int64
}

// mixClients is the number of closed-loop clients in the mix phase.
const mixClients = 2

// runMix runs a fixed schedule on two closed-loop clients that pull from one
// queue, and counts the whole process's allocations over it.
func runMix(d door, sched []opSpec, cnt *counts) mixResult {
	r := mixResult{ops: len(sched)}
	if sd, ok := d.(*serveDoor); ok {
		r.bytesOutBefore = sd.bytesOut.Load()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var next atomic.Int64
	var wg sync.WaitGroup
	perClient := make([]counts, mixClients)
	t0 := time.Now()
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				_, err := d.do(c, sched[i])
				perClient[c].record(err)
			}
		}(c)
	}
	wg.Wait()
	r.wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - before.Mallocs
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	for _, c := range perClient {
		cnt.attempted += c.attempted
		cnt.failed += c.failed
		if cnt.firstErr == nil {
			cnt.firstErr = c.firstErr
		}
	}
	return r
}

// finite replaces a value JSON cannot carry (a phase with no successful op
// has no latency) by 0; such a run is reported incorrect anyway.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// newWorkDir makes the per-run directory everything is written under.
func newWorkDir(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-")
}
