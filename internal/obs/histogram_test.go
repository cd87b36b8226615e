package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the bucketing rule: an observation
// equal to a bound lands in that bound's bucket (le is inclusive, the
// Prometheus convention), one nanosecond past it lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1e-3, 1e-2, 1e-1})
	h.Observe(time.Millisecond)      // == bound 0
	h.Observe(time.Millisecond + 1)  // just past bound 0
	h.Observe(10 * time.Millisecond) // == bound 1
	h.Observe(time.Second)           // beyond every bound: +Inf
	h.Observe(-time.Second)          // negative clamps to 0: bucket 0
	for i, want := range []int64{2, 2, 0, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d: got %d want %d", i, got, want)
		}
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count %d", s.Count)
	}
	wantSum := (1e-3) + (1e-3 + 1e-9) + 1e-2 + 1 + 0
	if math.Abs(s.Sum-wantSum) > 1e-12 {
		t.Fatalf("sum %v want %v", s.Sum, wantSum)
	}
}

// TestHistogramConcurrentWriters hammers one histogram from many
// goroutines; under -race this is the lock-free-writer proof, and the
// final count/sum must be exact (no lost updates).
func TestHistogramConcurrentWriters(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets)
	const goroutines, per = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*i%5000) * time.Microsecond)
				if i%64 == 0 {
					h.Snapshot() // concurrent reader
				}
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count %d want %d (lost updates)", s.Count, goroutines*per)
	}
	var bucketSum int64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}

// TestHistogramWriteProm checks the exposition format: cumulative buckets,
// +Inf, _sum/_count, label merging.
func TestHistogramWriteProm(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(5 * time.Second)
	var b strings.Builder
	h.Snapshot().WriteProm(&b, "x_seconds", `endpoint="level"`)
	out := b.String()
	for _, want := range []string{
		`x_seconds_bucket{endpoint="level",le="0.001"} 1`,
		`x_seconds_bucket{endpoint="level",le="0.01"} 2`,
		`x_seconds_bucket{endpoint="level",le="+Inf"} 3`,
		`x_seconds_count{endpoint="level"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	var nb strings.Builder
	h.Snapshot().WriteProm(&nb, "y_seconds", "")
	if !strings.Contains(nb.String(), `y_seconds_bucket{le="+Inf"} 3`) {
		t.Errorf("unlabeled buckets malformed:\n%s", nb.String())
	}
}
