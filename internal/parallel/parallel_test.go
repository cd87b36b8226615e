package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/raceflag"
)

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatal("Workers must be >= 1")
	}
}

func TestResolve(t *testing.T) {
	for in, want := range map[int]int{0: Workers(), 1: 1, 3: 3, -1: 1, -100: 1} {
		if got := Resolve(in); got != want {
			t.Errorf("Resolve(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestMapErrWorkersOrderedForAnyWorkerCount(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 100} {
		out, err := MapErrWorkers(50, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapErrWorkersLowestErrorWins(t *testing.T) {
	boom := errors.New("boom 7")
	for _, workers := range []int{1, 4} {
		_, err := MapErrWorkers(20, workers, func(i int) (int, error) {
			if i >= 7 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != boom.Error() {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
	}
}

func TestMapErrWorkersEmpty(t *testing.T) {
	out, err := MapErrWorkers(0, 4, func(i int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	out, err = MapErrWorkers(-3, 4, func(i int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapErrRunsEveryJob(t *testing.T) {
	const n = 300
	var hits [n]int32
	if _, err := MapErrWorkers(n, Workers(), func(i int) (struct{}, error) {
		atomic.AddInt32(&hits[i], 1)
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

// TestMapErrStopsAfterFailure: once a job has failed no further index is
// handed out. Job k fails at once, and every job above it holds its worker
// until the failing worker's goroutine has exited — it records the failure
// before it exits — so the jobs above k that run are only those the other
// workers claimed before the failure: at most workers-1 of them. The
// goroutine count is taken inside job k, when every worker is alive.
func TestMapErrStopsAfterFailure(t *testing.T) {
	const n, k = 200, 5
	for _, workers := range []int{2, 3, 8} {
		deadline := time.Now().Add(10 * time.Second)
		var above atomic.Int32
		var alive atomic.Int64 // goroutines while job k runs; 0 before
		_, err := MapErrWorkers(n, workers, func(i int) (int, error) {
			switch {
			case i == k:
				alive.Store(int64(runtime.NumGoroutine()))
				return 0, fmt.Errorf("boom %d", i)
			case i > k:
				above.Add(1)
				for (alive.Load() == 0 || int64(runtime.NumGoroutine()) >= alive.Load()) && time.Now().Before(deadline) {
					time.Sleep(100 * time.Microsecond)
				}
			}
			return i, nil
		})
		if err == nil || err.Error() != "boom 5" {
			t.Fatalf("workers=%d: err = %v, want boom 5", workers, err)
		}
		if got := above.Load(); got > int32(workers-1) {
			t.Errorf("workers=%d: %d jobs above the failed one ran, want at most %d", workers, got, workers-1)
		}
	}
}

// drain takes every result of o in order, stopping at the first error.
func drain[T any](o *Ordered[T], n int) ([]T, error) {
	defer o.Stop()
	out := make([]T, 0, n)
	for range n {
		v, err := o.Next()
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
	return out, nil
}

// jitter sleeps up to 200µs, so workers finish out of index order.
func jitter() { time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond) }

func TestOrderedDeliversInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		out, err := drain(NewOrdered(200, workers, func(i int) (int, error) {
			jitter()
			return i * i, nil
		}), 200)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestOrderedCoversAll(t *testing.T) {
	const n = 1000
	var hits [n]int32
	if _, err := drain(NewOrdered(n, 4, func(i int) (struct{}, error) {
		atomic.AddInt32(&hits[i], 1)
		return struct{}{}, nil
	}), n); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d produced %d times", i, h)
		}
	}
}

// TestOrderedInlineInOrder pins the serial mode: produce runs on the
// caller's goroutine, one index per Next, in order and no sooner.
func TestOrderedInlineInOrder(t *testing.T) {
	for _, workers := range []int{1, 0, -3} {
		var order []int
		o := NewOrdered(10, workers, func(i int) (int, error) {
			order = append(order, i)
			return i, nil
		})
		for k := range 10 {
			if len(order) != k {
				t.Fatalf("workers=%d: %d produce calls before Next %d", workers, len(order), k)
			}
			if v, _ := o.Next(); v != k {
				t.Fatalf("workers=%d: Next %d returned %d", workers, k, v)
			}
		}
		o.Stop()
	}
}

func TestOrderedEmpty(t *testing.T) {
	for _, n := range []int{0, -5} {
		o := NewOrdered(n, 4, func(int) (int, error) { t.Error("produce called for an empty range"); return 0, nil })
		o.Stop()
		o.Stop() // idempotent
	}
}

func TestOrderedMoreWorkersThanItems(t *testing.T) {
	var count int32
	out, err := drain(NewOrdered(3, 100, func(i int) (int, error) {
		atomic.AddInt32(&count, 1)
		return i, nil
	}), 3)
	if err != nil || len(out) != 3 || count != 3 {
		t.Fatalf("out=%v err=%v produced=%d", out, err, count)
	}
}

// TestOrderedWindowBound checks the memory discipline: with a slow consumer
// the workers run ahead by at most windowPerWorker × workers results. When
// produce(i) starts, indices 0..i are claimed and the consumer has begun at
// most `taken` Next calls, so i+1-taken bounds the results claimed and not
// yet handed over from above.
func TestOrderedWindowBound(t *testing.T) {
	for _, workers := range []int{2, 3} {
		const n = 300
		window := int64(windowPerWorker * workers)
		var taken, high atomic.Int64
		o := NewOrdered(n, workers, func(i int) (int, error) {
			out := int64(i) + 1 - taken.Load()
			for {
				h := high.Load()
				if out <= h || high.CompareAndSwap(h, out) {
					break
				}
			}
			return i, nil
		})
		for k := range n {
			if k%8 == 0 {
				time.Sleep(200 * time.Microsecond) // let the workers fill the window
			}
			taken.Add(1)
			if v, _ := o.Next(); v != k {
				t.Fatalf("Next %d returned %d", k, v)
			}
		}
		o.Stop()
		if h := high.Load(); h > window || h <= int64(workers) {
			t.Fatalf("workers=%d: %d results outstanding at the high-water mark, want (%d, %d]", workers, h, workers, window)
		}
	}
}

func TestOrderedFirstErrorInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := drain(NewOrdered(40, workers, func(i int) (int, error) {
			if i >= 7 {
				return 0, fmt.Errorf("boom %d", i) // later indices fail first
			}
			jitter()
			return i, nil
		}), 40)
		if err == nil || err.Error() != "boom 7" {
			t.Fatalf("workers=%d: err = %v, want boom 7", workers, err)
		}
	}
}

// TestOrderedStopReleasesGoroutines stops a run right after an early error:
// Stop waits out the produce calls in flight, and no worker outlives it.
func TestOrderedStopReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	var produced atomic.Int64
	_, err := drain(NewOrdered(10000, 8, func(i int) (int, error) {
		produced.Add(1)
		jitter()
		if i == 3 {
			return 0, errors.New("early")
		}
		return i, nil
	}), 10000)
	if err == nil {
		t.Fatal("want the early error")
	}
	if p := produced.Load(); p > 4+windowPerWorker*8 {
		t.Fatalf("%d produce calls after an error at index 3, window is %d", p, windowPerWorker*8)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before the run", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func square(i int) (int, error) { return i * i, nil }

func runOrdered(n, workers int) {
	o := NewOrdered(n, workers, square)
	for range n {
		o.Next()
	}
	o.Stop()
}

// TestOrderedInlineAllocs pins the serial mode's cost: a constant per run,
// none per item.
func TestOrderedInlineAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	for _, workers := range []int{1, 0, -1} {
		one := testing.AllocsPerRun(100, func() { runOrdered(1, workers) })
		many := testing.AllocsPerRun(100, func() { runOrdered(1000, workers) })
		if many != one {
			t.Errorf("workers=%d: %v allocations for 1000 items, %v for 1", workers, many, one)
		}
	}
}

// TestOrderedAllocsTwoStreams guards the smallest concurrent case — a
// two-stream container, the serve workloads' ingest — against costing more
// than the pool it replaced.
func TestOrderedAllocsTwoStreams(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	ordered := testing.AllocsPerRun(200, func() { runOrdered(2, 2) })
	mapped := testing.AllocsPerRun(200, func() { MapErrWorkers(2, 2, square) })
	t.Logf("Ordered(2, 2): %v allocations, MapErrWorkers(2, 2): %v", ordered, mapped)
	if ordered > mapped {
		t.Errorf("Ordered(2, 2): %v allocations, MapErrWorkers(2, 2): %v", ordered, mapped)
	}
}
