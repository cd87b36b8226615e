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

	// Optional disk tier (SetDiskTier): values evicted from the memory LRU
	// are spilled through encode; GetTier reloads them through decode.
	disk   *DiskTier
	encode func(val any) ([]byte, bool)
	decode func(payload []byte) (val any, size int64, ok bool)
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

// SetDiskTier attaches a disk spill tier: values displaced from the memory
// LRU by the byte budget are serialized through encode (which may decline a
// value by returning false) into t, and GetTier transparently reloads and
// re-promotes them through decode (which returns the value and the size to
// account it at in the memory tier). Must be called before the cache is
// shared between goroutines. No-op on a nil or disabled cache.
func (c *Cache) SetDiskTier(t *DiskTier, encode func(any) ([]byte, bool), decode func([]byte) (any, int64, bool)) {
	if c == nil || c.budget <= 0 || t == nil {
		return
	}
	c.disk, c.encode, c.decode = t, encode, decode
}

// Tier reports where GetTier found a value.
type Tier int

const (
	// TierNone: not cached anywhere.
	TierNone Tier = iota
	// TierMem: served from the in-memory LRU.
	TierMem
	// TierDisk: reloaded from the disk spill tier (and re-promoted to
	// memory).
	TierDisk
)

// GetTier is Get extended over the disk tier: a memory miss falls through
// to the spill files, and a disk hit is decoded, promoted back into the
// memory LRU, and returned with TierDisk so callers can attribute it.
func (c *Cache) GetTier(key string) (any, Tier, bool) {
	if val, ok := c.Get(key); ok {
		return val, TierMem, true
	}
	if c == nil || c.disk == nil || c.decode == nil {
		return nil, TierNone, false
	}
	payload, ok := c.disk.get(key)
	if !ok {
		return nil, TierNone, false
	}
	val, size, ok := c.decode(payload)
	if !ok {
		return nil, TierNone, false
	}
	c.Put(key, val, size)
	return val, TierDisk, true
}

// DiskStats snapshots the disk tier's counters; ok is false when no tier is
// attached.
func (c *Cache) DiskStats() (DiskStats, bool) {
	if c == nil || c.disk == nil {
		return DiskStats{}, false
	}
	return c.disk.Stats(), true
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
	// Budget victims are collected under the locks but spilled to the disk
	// tier only after every unlock (spilling is file IO).
	var victims []*entry
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
	evicted := c.evictLocked(s, key, func() bool { return s.bytes > s.budget && c.bytes.Load() > c.budget }, &victims)
	s.mu.Unlock()
	// Global sweep: when the insert (typically an oversize one) pushed the
	// whole cache over budget, reclaim from the other shards, one lock at a
	// time, least recently used first within each shard.
	for c.bytes.Load() > c.budget {
		freed := 0
		for i := 1; i < len(c.shards) && c.bytes.Load() > c.budget; i++ {
			o := &c.shards[(si+i)%len(c.shards)]
			o.mu.Lock()
			freed += c.evictLocked(o, key, func() bool { return o.bytes > 0 && c.bytes.Load() > c.budget }, &victims)
			o.mu.Unlock()
		}
		evicted += freed
		if freed == 0 {
			// Nothing left to reclaim elsewhere; drain this shard (except
			// the entry just inserted, which fits the global budget alone).
			s.mu.Lock()
			evicted += c.evictLocked(s, key, func() bool { return c.bytes.Load() > c.budget }, &victims)
			s.mu.Unlock()
			break
		}
	}
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}
	c.spill(victims)
}

// spill writes budget victims to the disk tier, if one is attached. Called
// with no locks held.
func (c *Cache) spill(victims []*entry) {
	if c.disk == nil || c.encode == nil {
		return
	}
	for _, e := range victims {
		if payload, ok := c.encode(e.val); ok {
			c.disk.put(e.key, payload)
		}
	}
}

// evictLocked removes s's LRU entries while cond holds, never evicting
// keep, appending the displaced entries to *victims for a later disk-tier
// spill. The shard lock must be held. Returns the eviction count.
func (c *Cache) evictLocked(s *shard, keep string, cond func() bool, victims *[]*entry) int {
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
		*victims = append(*victims, e)
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
