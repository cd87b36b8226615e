// Package cache provides the sharded, byte-budgeted LRU brick cache behind
// the random-access reader and the mrserve HTTP server: decoded level and
// box fields ("bricks") are kept hot so repeated reads of popular levels
// skip the backend decode entirely.
//
// The cache is safe for concurrent use. Keys are sharded by FNV-1a hash so
// concurrent readers of different bricks rarely contend on the same lock.
// Nothing is evicted while the cache as a whole is under its byte budget.
// Once it is over, the inserting shard first gives back what it holds above
// its slice of the budget, but a single entry may be up to half the *global*
// budget: large bricks (the fine levels of big fields — the most expensive
// decodes) borrow room from the other shards, which are swept
// least-recently-used-first until the global budget fits again. No key
// distribution can overrun the global budget.
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
	"sync/atomic"
)

// DefaultShards is the shard count used when New is given a non-positive
// one.
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

// Cache is a sharded LRU keyed by string, bounded by total value bytes.
// The zero value is not usable; call New. A nil *Cache is a valid no-op
// cache (every Get misses, every Put is dropped), so callers can thread an
// optional cache without nil checks.
type Cache struct {
	shards []shard
	budget int64
	// maxEntry is the largest single value admitted: the per-shard budget,
	// or half the global budget when that is larger (the oversize
	// exemption — see Put).
	maxEntry  int64
	bytes     atomic.Int64 // global occupancy, mirrored by the shard sums
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type shard struct {
	mu     sync.Mutex
	lru    *list.List // front = most recently used
	items  map[string]*list.Element
	bytes  int64
	budget int64
}

type entry struct {
	key  string
	val  any
	size int64
}

// New creates a cache holding at most budgetBytes of values across the
// given number of shards (DefaultShards when nShards <= 0). A budgetBytes
// <= 0 disables caching entirely.
func New(budgetBytes int64, nShards int) *Cache {
	if budgetBytes <= 0 {
		return &Cache{budget: 0}
	}
	if nShards <= 0 {
		nShards = DefaultShards
	}
	if int64(nShards) > budgetBytes {
		nShards = 1
	}
	c := &Cache{shards: make([]shard, nShards), budget: budgetBytes}
	per := budgetBytes / int64(nShards)
	c.maxEntry = max(per, budgetBytes/2)
	for i := range c.shards {
		c.shards[i] = shard{lru: list.New(), items: make(map[string]*list.Element), budget: per}
	}
	return c
}

// fnv1a hashes a key without allocating.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (c *Cache) shardIndex(key string) int {
	return int(fnv1a(key) % uint32(len(c.shards)))
}

// Get returns the cached value for key and marks it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	if c == nil || c.budget <= 0 {
		return nil, false
	}
	s := &c.shards[c.shardIndex(key)]
	s.mu.Lock()
	el, ok := s.items[key]
	var val any
	if ok {
		s.lru.MoveToFront(el)
		// Extract under the lock: a concurrent Put may refresh the entry.
		val = el.Value.(*entry).val
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Put inserts (or refreshes) a value accounted at the given size in bytes,
// evicting least-recently-used entries once the global budget is exceeded:
// first from this shard while it is above its slice, then from the other
// shards' LRU tails. A value larger than a shard's slice (but at most half
// the global budget) is still admitted, so the most expensive bricks are
// never silently uncacheable. Values above the admission bound are dropped.
func (c *Cache) Put(key string, val any, size int64) {
	if c == nil || c.budget <= 0 || size < 0 {
		return
	}
	if size > c.maxEntry {
		return
	}
	si := c.shardIndex(key)
	s := &c.shards[si]
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry)
		s.bytes += size - e.size
		c.bytes.Add(size - e.size)
		e.val, e.size = val, size
		s.lru.MoveToFront(el)
	} else {
		s.items[key] = s.lru.PushFront(&entry{key: key, val: val, size: size})
		s.bytes += size
		c.bytes.Add(size)
	}
	// Shard-local eviction, once the cache as a whole is over budget: a
	// shard's slice is its share of a full cache, not a cap on a part-empty
	// one. Keys land in shards pseudo-randomly (brick keys carry a container
	// version), so two large bricks sharing a shard is the common case, and
	// they must not displace each other while there is room elsewhere. An
	// oversize entry may push out every ordinary co-resident; the shard then
	// legitimately sits above its slice.
	evicted := c.evictLocked(s, key, func() bool { return s.bytes > s.budget && c.bytes.Load() > c.budget })
	s.mu.Unlock()
	// Global sweep: when the insert (typically an oversize one) pushed the
	// whole cache over budget, reclaim from the other shards, one lock at a
	// time, least recently used first within each shard.
	for c.bytes.Load() > c.budget {
		freed := 0
		for i := 1; i < len(c.shards) && c.bytes.Load() > c.budget; i++ {
			o := &c.shards[(si+i)%len(c.shards)]
			o.mu.Lock()
			freed += c.evictLocked(o, key, func() bool { return o.bytes > 0 && c.bytes.Load() > c.budget })
			o.mu.Unlock()
		}
		evicted += freed
		if freed == 0 {
			// Nothing left to reclaim elsewhere; drain this shard (except
			// the entry just inserted, which fits the global budget alone).
			s.mu.Lock()
			evicted += c.evictLocked(s, key, func() bool { return c.bytes.Load() > c.budget })
			s.mu.Unlock()
			break
		}
	}
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}
}

// evictLocked removes s's LRU entries while cond holds, never evicting
// keep. The shard lock must be held. Returns the eviction count.
func (c *Cache) evictLocked(s *shard, keep string, cond func() bool) int {
	evicted := 0
	for cond() {
		back := s.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		if e.key == keep {
			break
		}
		s.lru.Remove(back)
		delete(s.items, e.key)
		s.bytes -= e.size
		c.bytes.Add(-e.size)
		evicted++
	}
	return evicted
}

// Stats snapshots the cache counters and occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Budget:    c.budget,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.items)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
