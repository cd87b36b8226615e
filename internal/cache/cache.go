// Package cache provides the byte-budgeted LRU brick cache behind the
// random-access reader and the mrserve HTTP server: decoded level and box
// fields ("bricks") are kept hot so repeated reads of popular levels skip
// the backend decode entirely.
//
// The cache is one least-recently-used list under one mutex, and it also
// loads each brick once: Do coalesces concurrent loads of the same key, so
// N requests racing one cold brick cost one backend fetch and decode, and
// the loaded value is stored in the same critical section that retires the
// load. A value is therefore always either stored, being loaded, or absent;
// no caller can miss both.
//
// Nothing is evicted while the cache is under its byte budget. Once it is
// over, entries leave least recently used first, across all keys. A value
// larger than half the budget is not cached, so one brick never flushes the
// whole working set. A budget <= 0 caches nothing but still coalesces loads.
//
// Entries leave only by LRU displacement: there is no removal or
// invalidation API. Callers whose values can go stale put the version of
// what they cached into the key (internal/reader does, for container
// bricks), so a superseded entry is never looked up again and ages out.
//
// Memory is the only tier. An evicted brick is re-decoded from its
// container on the next access: a container is tens of times smaller than
// the levels it decodes to, and re-decoding a 128³ fine level from a local
// file measured about 3× faster than reading back and deserializing a
// 16.8 MB copy of it written to disk.
package cache

import (
	"container/list"
	"sync"
)

// DefaultShards was the shard count of the cache before it became a single
// LRU. It is deprecated and unused; it remains only because the bench
// harness still passes it to New.
const DefaultShards = 16

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Evictions counts entries displaced by the byte budget.
	Evictions int64
	// Entries and Bytes are current occupancy.
	Entries int
	Bytes   int64
	// Budget is the configured byte budget (0 = caching disabled).
	Budget int64
}

// Cache is an LRU keyed by string, bounded by total value bytes, that
// coalesces concurrent loads of one key. The zero value is not usable; call
// New. A nil *Cache is a valid no-op cache (every Get misses, every Put is
// dropped, Do runs its load uncoalesced), so callers can thread an optional
// cache without nil checks.
type Cache struct {
	mu      sync.Mutex
	lru     list.List // of *entry; front = most recently used
	items   map[string]*list.Element
	flights map[string]*flight
	bytes   int64
	budget  int64

	hits, misses, evictions int64
}

type entry struct {
	key  string
	val  any
	size int64
}

// flight is one load in progress; its joiners wait on wg.
type flight struct {
	wg  sync.WaitGroup
	val any
	err error
}

// New creates a cache holding at most budgetBytes of values. A budgetBytes
// <= 0 caches nothing but still coalesces loads (Do). The trailing argument
// is ignored: it was the shard count, and is deprecated; it remains only
// because the bench harness still passes one.
func New(budgetBytes int64, _ ...int) *Cache {
	return &Cache{
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
		budget:  max(budgetBytes, 0),
	}
}

// Get returns the cached value for key and marks it most recently used. It
// is the counted probe: each call is one hit or one miss in Stats (none on a
// cache with no budget, which looks nothing up).
func (c *Cache) Get(key string) (any, bool) {
	if c == nil || c.budget == 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put inserts (or refreshes) a value accounted at the given size in bytes,
// evicting least-recently-used entries once the budget is exceeded. Values
// above half the budget are dropped.
func (c *Cache) Put(key string, val any, size int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.putLocked(key, val, size)
	c.mu.Unlock()
}

// Do returns the value for key, loading it with fn at most once however
// many callers ask concurrently. Under one lock it either returns the value
// already stored, joins the load in flight (shared is true: the value or
// error is that load's), or leads a new load: fn runs with the lock
// released, and its value, accounted at the returned size, is stored in the
// same critical section that retires the flight. A failed load stores
// nothing. Do counts no hit or miss; Get is the counted probe.
func (c *Cache) Do(key string, fn func() (val any, size int64, err error)) (val any, shared bool, err error) {
	if c == nil {
		val, _, err = fn()
		return val, false, err
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		val = el.Value.(*entry).val
		c.mu.Unlock()
		return val, false, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		f.wg.Wait()
		return f.val, true, f.err
	}
	f := &flight{}
	f.wg.Add(1)
	c.flights[key] = f
	c.mu.Unlock()

	var size int64
	f.val, size, f.err = fn()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.putLocked(key, f.val, size)
	}
	c.mu.Unlock()
	f.wg.Done()
	return f.val, false, f.err
}

// putLocked is Put with c.mu held.
func (c *Cache) putLocked(key string, val any, size int64) {
	if c.budget == 0 || size < 0 || size > c.budget/2 {
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.lru.MoveToFront(el)
	} else {
		c.items[key] = c.lru.PushFront(&entry{key: key, val: val, size: size})
		c.bytes += size
	}
	// The entry just stored is at the front and within the budget alone, so
	// the sweep stops before reaching it.
	for c.bytes > c.budget {
		e := c.lru.Remove(c.lru.Back()).(*entry)
		delete(c.items, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// Stats snapshots the cache counters and occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.items),
		Bytes:     c.bytes,
		Budget:    c.budget,
	}
}
