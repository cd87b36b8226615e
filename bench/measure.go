package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// A phase is one op class timed on its own: op classes are never interleaved
// while being timed, because on a small noisy host interleaving them moved the
// plain median by 17–25 % between runs of the same code (see README.md).
type phase struct {
	rawBytes int64     // raw float64 input bytes one op covers (for MB/s)
	samples  []float64 // seconds per successful op, in arrival order
}

// minPhaseSamples is the fewest samples a phase reports on; a phase whose ops
// are slow runs past its time (up to maxPhaseStretch times it) to get them.
const (
	minPhaseSamples = 20
	maxPhaseStretch = 4
)

// quietMedian cuts the samples, in arrival order, into equal consecutive
// windows (8 from 80 samples up, else 4, never more than there are samples)
// and returns the lowest window median: the latency during the quietest
// stretch of the phase. A burst of host noise (steal, a neighbour's cache
// traffic) spoils the windows it overlaps and leaves the others alone,
// whereas it drags a plain median over the whole phase.
func quietMedian(samples []float64) float64 {
	n := len(samples)
	w := min(4, n)
	if n >= 80 {
		w = 8
	}
	best := math.Inf(1)
	for i := 0; i < w; i++ {
		if m := median(samples[i*n/w : (i+1)*n/w]); m < best {
			best = m
		}
	}
	return best
}

// median returns the median of xs without reordering it (NaN when empty).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the p-quantile (nearest rank on the sorted copy).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// counts is the failure accounting every result carries: an op that errors,
// answers non-2xx or fails its oracle check is failed and has no latency.
type counts struct {
	attempted, failed int
	firstErr          error
}

func (c *counts) record(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
}

// runPhase times one op class in a contiguous block: a GC, untimed warm-up
// ops, then ops back to back for dur, and on past it (see maxPhaseStretch)
// until there are minSamples. next yields the op to run (drawn from the
// seed); do runs it and returns the front-door latency, with input
// preparation and oracle checks left outside.
func runPhase(rawBytes int64, dur time.Duration, warmups, minSamples int, cnt *counts,
	next func() opSpec, do func(opSpec) (time.Duration, error)) *phase {
	ph := &phase{rawBytes: rawBytes}
	runtime.GC()
	for i := 0; i < warmups; i++ {
		_, err := do(next())
		cnt.record(err)
	}
	start := time.Now()
	for {
		el := time.Since(start)
		if el >= dur && (len(ph.samples) >= minSamples || el >= maxPhaseStretch*dur) {
			break
		}
		dt, err := do(next())
		cnt.record(err)
		if err == nil {
			ph.samples = append(ph.samples, dt.Seconds())
		}
	}
	return ph
}

// mbPerS is the throughput of a phase: MB = 1e6 bytes of raw float64 input.
func (ph *phase) mbPerS() float64 { return float64(ph.rawBytes) / quietMedian(ph.samples) / 1e6 }

func (ph *phase) quietMs() float64 { return quietMedian(ph.samples) * 1e3 }
