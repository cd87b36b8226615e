package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the fixed histogram bounds (seconds) used for
// request and stage latencies: ~exponential from 50µs to 10s, covering a
// cached-brick hit through a cold fine-level decode with bounded relative
// error per bucket.
var DefaultLatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// writers: every Observe is two atomic adds plus one atomic increment, no
// locks, so it can sit on the hottest request path. Bounds are in seconds
// (the Prometheus convention); observations are recorded in nanoseconds
// internally so concurrent sums stay exact.
type Histogram struct {
	boundsNs []int64   // upper bounds in ns, ascending
	bounds   []float64 // same bounds in seconds (exposition)
	counts   []atomic.Int64
	sumNs    atomic.Int64
	count    atomic.Int64
}

// NewHistogram builds a histogram over the given ascending bucket upper
// bounds in seconds. An implicit +Inf bucket is always appended. A nil or
// empty bounds slice uses DefaultLatencyBuckets.
func NewHistogram(boundsSeconds []float64) *Histogram {
	if len(boundsSeconds) == 0 {
		boundsSeconds = DefaultLatencyBuckets
	}
	h := &Histogram{
		bounds:   append([]float64(nil), boundsSeconds...),
		boundsNs: make([]int64, len(boundsSeconds)),
		counts:   make([]atomic.Int64, len(boundsSeconds)+1),
	}
	for i, b := range h.bounds {
		h.boundsNs[i] = int64(b * 1e9)
	}
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	i := sort.Search(len(h.boundsNs), func(i int) bool { return ns <= h.boundsNs[i] })
	h.counts[i].Add(1)
	h.sumNs.Add(ns)
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram, the unit the
// /metrics formatter works from (so it never runs against moving counters).
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds in seconds (exclusive of +Inf).
	Bounds []float64
	// Counts holds per-bucket (non-cumulative) observation counts;
	// len(Counts) == len(Bounds)+1, the last being the +Inf bucket.
	Counts []int64
	// Count is the total number of observations.
	Count int64
	// Sum is the total observed time in seconds.
	Sum float64
}

// Snapshot copies the counters. Concurrent Observes may land between the
// bucket loads — the snapshot is still a valid histogram, merely a few
// observations behind or ahead per bucket, which is the usual Prometheus
// scrape semantics.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    float64(h.sumNs.Load()) / 1e9,
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// WriteProm writes the snapshot in the Prometheus text exposition format:
// cumulative <name>_bucket lines with an le label, then <name>_sum and
// <name>_count. labels is either empty or a pre-rendered label list such as
// `endpoint="level"` that is merged ahead of le.
func (s HistogramSnapshot) WriteProm(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := int64(0)
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = strconv.FormatFloat(s.Bounds[i], 'g', -1, 64)
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %.9f\n", name, labels, s.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
}
