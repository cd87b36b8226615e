package cache

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// The disk tier is the cache's second level: bricks evicted from the memory
// LRU are spilled to files in a budgeted directory instead of being thrown
// away, so a working set larger than RAM costs a file read on re-access
// rather than a full backend fetch + decode. The tier is ephemeral — it is
// wiped at startup (a cache has nothing worth keeping across restarts) and
// never fsynced. Like the memory tier it has no invalidation: spill files
// leave by the disk budget's LRU, and keys carry the version of what they
// hold.

// maxSpillKeyLen bounds the key-length prefix read back from a spill file;
// anything larger marks the file as garbage, not a huge allocation.
const maxSpillKeyLen = 4096

// DiskStats snapshots the disk tier's counters and occupancy.
type DiskStats struct {
	// Hits and Misses count lookups that fell through the memory tier.
	Hits, Misses int64
	// Writes counts spill files written (memory-tier evictions captured).
	Writes int64
	// Evictions counts spill files displaced by the disk budget.
	Evictions int64
	// Entries and Bytes are current occupancy; Budget the configured bound.
	Entries int
	Bytes   int64
	Budget  int64
}

// DiskTier is a byte-budgeted LRU of spill files in one directory. Safe for
// concurrent use; all file IO happens outside its lock.
type DiskTier struct {
	dir    string
	budget int64
	seq    atomic.Uint64 // unique spill filenames

	mu    sync.Mutex
	lru   *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64

	hits, misses, writes, evictions atomic.Int64
}

type diskEntry struct {
	key  string
	path string
	size int64 // file size on disk (header + payload)
}

// NewDiskTier creates (or reuses) dir as a spill directory bounded by
// budgetBytes, removing any spill files a previous process left behind.
func NewDiskTier(dir string, budgetBytes int64) (*DiskTier, error) {
	if budgetBytes <= 0 {
		return nil, fmt.Errorf("cache: disk tier budget must be positive, got %d", budgetBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The tier is ephemeral: stale spill files from a previous run are
	// unindexed garbage, so reclaim the space up front.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".spill") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &DiskTier{
		dir:    dir,
		budget: budgetBytes,
		lru:    list.New(),
		items:  make(map[string]*list.Element),
	}, nil
}

// Dir returns the spill directory.
func (t *DiskTier) Dir() string { return t.dir }

// Stats snapshots the tier's counters and occupancy.
func (t *DiskTier) Stats() DiskStats {
	st := DiskStats{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Writes:    t.writes.Load(),
		Evictions: t.evictions.Load(),
		Budget:    t.budget,
	}
	t.mu.Lock()
	st.Entries = len(t.items)
	st.Bytes = t.bytes
	t.mu.Unlock()
	return st
}

// encodeSpill frames a payload for its spill file: uvarint key length, key
// bytes, payload. The embedded key lets reads verify the index still points
// at the file they expect.
func encodeSpill(key string, payload []byte) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(key)+len(payload))
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	return append(buf, payload...)
}

// decodeSpill undoes encodeSpill, returning the embedded key and payload.
func decodeSpill(data []byte) (string, []byte, error) {
	klen, n := binary.Uvarint(data)
	if n <= 0 {
		return "", nil, fmt.Errorf("cache: spill file: bad key length prefix")
	}
	if klen > maxSpillKeyLen {
		return "", nil, fmt.Errorf("cache: spill file: implausible key length %d", klen)
	}
	rest := data[n:]
	if uint64(len(rest)) < klen {
		return "", nil, fmt.Errorf("cache: spill file: truncated key")
	}
	return string(rest[:klen]), rest[klen:], nil
}

// put spills a payload for key, replacing any previous spill and evicting
// least-recently-used files until the budget fits. Write failures just drop
// the spill — the tier is an optimization, never a correctness dependency.
func (t *DiskTier) put(key string, payload []byte) {
	if len(key) > maxSpillKeyLen {
		return
	}
	framed := encodeSpill(key, payload)
	size := int64(len(framed))
	if size > t.budget {
		return
	}
	path := filepath.Join(t.dir, fmt.Sprintf("%016x.spill", t.seq.Add(1)))
	// Write the complete file before touching the index: a concurrent get
	// never observes a partial spill because the path is not indexed yet.
	if err := os.WriteFile(path, framed, 0o644); err != nil {
		os.Remove(path)
		return
	}
	var stale []string
	t.mu.Lock()
	if el, ok := t.items[key]; ok {
		old := el.Value.(*diskEntry)
		stale = append(stale, old.path)
		t.bytes -= old.size
		old.path, old.size = path, size
		t.lru.MoveToFront(el)
	} else {
		t.items[key] = t.lru.PushFront(&diskEntry{key: key, path: path, size: size})
	}
	t.bytes += size
	evicted := 0
	for t.bytes > t.budget {
		back := t.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*diskEntry)
		if e.key == key {
			break
		}
		t.lru.Remove(back)
		delete(t.items, e.key)
		t.bytes -= e.size
		stale = append(stale, e.path)
		evicted++
	}
	t.mu.Unlock()
	t.writes.Add(1)
	if evicted > 0 {
		t.evictions.Add(int64(evicted))
	}
	for _, p := range stale {
		os.Remove(p)
	}
}

// get returns the spilled payload for key, if present and intact, marking
// it most recently used. A file that has vanished or fails verification is
// dropped from the index and reported as a miss.
func (t *DiskTier) get(key string) ([]byte, bool) {
	t.mu.Lock()
	el, ok := t.items[key]
	var path string
	if ok {
		t.lru.MoveToFront(el)
		path = el.Value.(*diskEntry).path
	}
	t.mu.Unlock()
	if !ok {
		t.misses.Add(1)
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err == nil {
		gotKey, payload, derr := decodeSpill(data)
		if derr == nil && gotKey == key {
			t.hits.Add(1)
			return payload, true
		}
	}
	// Vanished (a concurrent re-spill or budget eviction removed it) or
	// corrupt: drop the index entry if it still points at this path.
	t.mu.Lock()
	if el, ok := t.items[key]; ok {
		e := el.Value.(*diskEntry)
		if e.path == path {
			t.lru.Remove(el)
			delete(t.items, key)
			t.bytes -= e.size
		}
	}
	t.mu.Unlock()
	t.misses.Add(1)
	return nil, false
}
