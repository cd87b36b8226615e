// Positive fixtures: blocking work under a mutex, the PR 3 race class.
package positive

import (
	"os"
	"sync"

	"repro/internal/flatepool"
)

type server struct {
	mu   sync.Mutex
	data map[string][]byte
}

// deferHold keeps the lock for the whole body, so the read is under it.
func (s *server) deferHold(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, _ := os.ReadFile(path) // want `call to os.ReadFile while holding s\.mu`
	s.data[path] = b
}

// explicitHold releases only after the IO.
func (s *server) explicitHold(path string) {
	s.mu.Lock()
	os.ReadFile(path) // want `call to os.ReadFile while holding s\.mu`
	s.mu.Unlock()
}

type shard struct {
	mu sync.Mutex
}

// nested takes a second lock while holding the first: the cross-shard
// lock-order inversion half of the class.
func nested(a, b *shard) {
	a.mu.Lock()
	b.mu.Lock() // want `acquiring "b\.mu" while already holding a\.mu`
	b.mu.Unlock()
	a.mu.Unlock()
}

// rlockCounts exercises the RWMutex read side.
type registry struct {
	mu sync.RWMutex
}

func (r *registry) rlocked(path string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	os.Stat(path) // want `call to os.Stat while holding r\.mu`
}

// inflateHold decodes a stream under the lock: flatepool is the DEFLATE
// decoder.
func (s *server) inflateHold(key string) int {
	s.mu.Lock()
	in, err := flatepool.Inflate(s.data[key]) // want `call to repro/internal/flatepool\.Inflate while holding s\.mu`
	s.mu.Unlock()
	if err != nil {
		return 0
	}
	defer in.Release()
	return len(in.Bytes())
}
