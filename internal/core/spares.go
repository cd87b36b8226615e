package core

import "sync"

// spares is a free list local to one call: a buffer the call has finished
// with goes back on it and carries the call's next stream. It holds at most
// what was in flight at once — a write's window, a decode's workers — and
// dies with the call, so nothing is retained between calls.
type spares[T any] struct {
	mu   sync.Mutex
	free []T
}

// get returns a spare, or the zero value when there is none.
func (s *spares[T]) get() (t T) {
	s.mu.Lock()
	if n := len(s.free); n > 0 {
		t, s.free = s.free[n-1], s.free[:n-1]
	}
	s.mu.Unlock()
	return t
}

// put hands t back for a later get.
func (s *spares[T]) put(t T) {
	s.mu.Lock()
	s.free = append(s.free, t)
	s.mu.Unlock()
}
