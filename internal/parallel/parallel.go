// Package parallel provides the goroutine worker-pool helpers standing in
// for the paper's OpenMP parallelization of compression and post-processing.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the degree of parallelism to use: GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// Resolve normalizes a worker-count option: 0 means Workers(), and any other
// value below 1 means 1 (serial).
func Resolve(workers int) int {
	if workers == 0 {
		return Workers()
	}
	return max(workers, 1)
}

// MapErrWorkers runs fn(i) for i in [0, n) across at most `workers`
// goroutines and collects the results in index order, so the output is
// independent of the worker count. Jobs are handed out one at a time from a
// shared counter (not in contiguous chunks) because callers typically have
// few, unevenly sized jobs — e.g. one compression stream per level or box.
// If any job fails, the error from the lowest failing index is returned, the
// results are discarded, and no index is handed out after the failure (fn
// must not assume earlier indices succeeded).
func MapErrWorkers[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, max(n, 0))
	if workers = min(workers, n); workers <= 1 {
		for i := range out {
			var err error
			if out[i], err = fn(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	st := struct { // the shared state: one allocation, whatever the count
		next   atomic.Int64 // the next index to hand out; n once a job fails
		wg     sync.WaitGroup
		mu     sync.Mutex
		lowest int // the lowest failing index so far, guarded by mu
		err    error
	}{lowest: n}
	work := func() {
		defer st.wg.Done()
		for i := int(st.next.Add(1)) - 1; i < n; i = int(st.next.Add(1)) - 1 {
			var err error
			if out[i], err = fn(i); err != nil {
				st.next.Store(int64(n))
				st.mu.Lock()
				if i < st.lowest {
					st.lowest, st.err = i, err
				}
				st.mu.Unlock()
			}
		}
	}
	st.wg.Add(workers)
	for range workers {
		go work()
	}
	st.wg.Wait()
	if st.err != nil {
		return nil, st.err
	}
	return out, nil
}

// windowPerWorker bounds how far Ordered's workers run ahead of its
// consumer: at most windowPerWorker × workers results (capped at n) are
// claimed — in production or finished — and not yet handed over. Eight per
// worker keeps every worker busy across uneven job sizes; one per worker
// idles them at each slow job.
const windowPerWorker = 8

// Ordered runs produce(i) for i in [0, n) on up to `workers` goroutines and
// hands the results to one consumer (the container write, whose bytes must
// be in order) strictly in index order through Next, holding at most
// windowPerWorker × workers of them at once. With workers ≤ 1 (or n ≤ 1)
// Next calls produce inline: no goroutines, no allocation per item. Next
// and Stop are called from one goroutine.
type Ordered[T any] struct {
	produce func(int) (T, error)
	n, next int // next is the index Next hands over next

	// Concurrent mode only; slots is nil inline.
	mu      sync.Mutex
	ready   sync.Cond // the slot of index next was filled
	space   sync.Cond // the consumer advanced, or Stop was called
	slots   []orderedSlot[T]
	claimed int // indices handed to workers so far
	stopped bool
	wg      sync.WaitGroup
}

// orderedSlot holds the result of index i at slots[i%len(slots)].
type orderedSlot[T any] struct {
	v    T
	err  error
	done bool
}

// NewOrdered starts the workers; the caller must call Stop (typically
// deferred) once it has taken what it needs.
func NewOrdered[T any](n, workers int, produce func(i int) (T, error)) *Ordered[T] {
	o := &Ordered[T]{produce: produce, n: n}
	if workers <= 1 || n <= 1 {
		return o
	}
	o.slots = make([]orderedSlot[T], min(windowPerWorker*workers, n))
	o.ready.L, o.space.L = &o.mu, &o.mu
	workers = min(workers, n)
	o.wg.Add(workers)
	work := o.work // one method value for all workers, not one per go statement
	for range workers {
		go work()
	}
	return o
}

func (o *Ordered[T]) work() {
	defer o.wg.Done()
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		for !o.stopped && o.claimed < o.n && o.claimed-o.next >= len(o.slots) {
			o.space.Wait()
		}
		if o.stopped || o.claimed >= o.n {
			return
		}
		i := o.claimed
		o.claimed++
		o.mu.Unlock()
		v, err := o.produce(i)
		o.mu.Lock()
		o.slots[i%len(o.slots)] = orderedSlot[T]{v: v, err: err, done: true}
		if i == o.next {
			o.ready.Signal()
		}
	}
}

// Next returns the result of the next index in order: produce's value and
// error for it. It must be called at most n times, and not after Stop.
func (o *Ordered[T]) Next() (T, error) {
	if o.slots == nil {
		i := o.next
		o.next++
		return o.produce(i)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	s := &o.slots[o.next%len(o.slots)]
	for !s.done {
		o.ready.Wait()
	}
	v, err := s.v, s.err
	*s = orderedSlot[T]{} // handed over: the window no longer holds it
	o.next++
	o.space.Signal()
	return v, err
}

// Stop ends the run: no index is claimed after it, and it returns once
// every produce call in flight has finished. Results not taken are dropped.
// Stop is idempotent.
func (o *Ordered[T]) Stop() {
	if o.slots == nil {
		return
	}
	o.mu.Lock()
	o.stopped = true
	o.space.Broadcast()
	o.mu.Unlock()
	o.wg.Wait()
}
