package store

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"sort"
	"sync"
	"time"
)

// Mem is the in-memory backend: objects are byte slices under a mutex. It
// exists for tests and mem:// URLs — a full serving stack with no
// filesystem underneath — and as the reference implementation of the
// interface's atomicity contract (Install swaps a complete object in one
// critical section).
type Mem struct {
	mu      sync.Mutex
	objects map[string]memObject
	now     func() time.Time // test seam
}

type memObject struct {
	data []byte
	info Info
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{objects: make(map[string]memObject), now: time.Now}
}

func (s *Mem) String() string { return "mem://" }

// memETag is the strong validator of an in-memory object version: content
// CRC plus length, the same shape the serving tier derives from container
// footers.
func memETag(data []byte) string {
	return fmt.Sprintf("%08x-%x", crc32.ChecksumIEEE(data), len(data))
}

// memHandle reads a snapshot of the object's bytes: a concurrent Install
// replaces the store's slice, never mutates it, so the handle stays
// consistent for its lifetime.
type memHandle struct {
	r    *bytes.Reader
	info Info
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) { return h.r.ReadAt(p, off) }
func (h *memHandle) Close() error                            { return nil }
func (h *memHandle) Size() int64                             { return h.info.Size }
func (h *memHandle) Info() Info                              { return h.info }

func (s *Mem) get(key string) (memObject, error) {
	if err := checkKey(key); err != nil {
		return memObject{}, err
	}
	s.mu.Lock()
	obj, ok := s.objects[key]
	s.mu.Unlock()
	if !ok {
		return memObject{}, fmt.Errorf("store: mem object %q: %w", key, fs.ErrNotExist)
	}
	return obj, nil
}

func (s *Mem) Open(_ context.Context, key string) (Handle, error) {
	obj, err := s.get(key)
	if err != nil {
		return nil, err
	}
	return &memHandle{r: bytes.NewReader(obj.data), info: obj.info}, nil
}

func (s *Mem) Stat(_ context.Context, key string) (Info, error) {
	obj, err := s.get(key)
	if err != nil {
		return Info{}, err
	}
	return obj.info, nil
}

func (s *Mem) Install(_ context.Context, key string, fn func(io.Writer) error) error {
	if err := checkKey(key); err != nil {
		return err
	}
	// Build the complete object outside the lock; swap it in atomically.
	var buf bytes.Buffer
	if err := fn(&buf); err != nil {
		return err
	}
	data := buf.Bytes()
	info := Info{Size: int64(len(data)), ETag: memETag(data)}
	s.mu.Lock()
	info.ModTime = s.now()
	s.objects[key] = memObject{data: data, info: info}
	s.mu.Unlock()
	return nil
}

func (s *Mem) List(_ context.Context) ([]string, error) {
	s.mu.Lock()
	keys := make([]string, 0, len(s.objects))
	for k := range s.objects {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys, nil
}
