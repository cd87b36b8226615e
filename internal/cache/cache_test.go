package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutAndLRUEviction(t *testing.T) {
	c := New(100, 1) // single shard so eviction order is deterministic
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 10)
	}
	st := c.Stats()
	if st.Entries != 10 || st.Bytes != 100 {
		t.Fatalf("occupancy %d entries / %d bytes", st.Entries, st.Bytes)
	}
	// Touch k0 so it becomes MRU, then push it over budget: k1 (now LRU)
	// must be the eviction victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put("k10", 10, 10)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 survived eviction despite being LRU")
	}
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("recently-used k0 was evicted")
	}
	if st := c.Stats(); st.Bytes > 100 {
		t.Fatalf("budget overrun: %d bytes", st.Bytes)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions counted")
	}
}

func TestRefreshAdjustsBytes(t *testing.T) {
	c := New(100, 1)
	c.Put("a", 1, 40)
	c.Put("a", 2, 60)
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 60 {
		t.Fatalf("after refresh: %d entries / %d bytes", st.Entries, st.Bytes)
	}
	v, ok := c.Get("a")
	if !ok || v.(int) != 2 {
		t.Fatalf("refresh lost the new value: %v %v", v, ok)
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New(100, 1)
	c.Put("huge", 1, 1000)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("value larger than the budget was cached")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized put left residue: %+v", st)
	}
}

// TestLargerThanShardBudgetCached is the regression test for the silent
// large-brick drop: with 4 shards over a 1000-byte budget each shard's
// slice is 250 bytes, yet a 400-byte brick (the expensive fine-level case)
// must still cache and be a hit on the second read.
func TestLargerThanShardBudgetCached(t *testing.T) {
	c := New(1000, 4)
	c.Put("big", "brick", 400) // > per-shard 250, < global/2
	v, ok := c.Get("big")
	if !ok || v.(string) != "brick" {
		t.Fatalf("brick above the per-shard budget was not cached (ok=%v)", ok)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("second read was not a hit: %+v", st)
	}
	// Above half the global budget the entry is (deliberately) dropped.
	c.Put("toobig", 1, 501)
	if _, ok := c.Get("toobig"); ok {
		t.Fatal("entry above half the global budget was cached")
	}
}

// TestOversizeEntryBorrowsWithoutOverrun fills every shard, inserts an
// oversize entry, and checks the global budget still holds — the borrow
// must come out of other shards' LRU tails.
func TestOversizeEntryBorrowsWithoutOverrun(t *testing.T) {
	c := New(1000, 4)
	for i := 0; i < 40; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 100)
	}
	before := c.Stats()
	if before.Bytes == 0 {
		t.Fatal("warm-up cached nothing")
	}
	c.Put("big", "brick", 450)
	st := c.Stats()
	if st.Bytes > st.Budget {
		t.Fatalf("global budget overrun after oversize put: %d > %d", st.Bytes, st.Budget)
	}
	if _, ok := c.Get("big"); !ok {
		t.Fatal("oversize entry evicted by its own insert")
	}
	if st.Evictions == 0 {
		t.Fatal("oversize insert displaced nothing despite a full cache")
	}
}

// TestNoEvictionBelowGlobalBudget: a shard's slice is its share of a full
// cache, not a cap on a part-empty one. Two entries that share a shard and
// together exceed its slice must both stay while the cache as a whole has
// room — keys hash to shards pseudo-randomly, so this is the common case for
// the large fine-level bricks.
func TestNoEvictionBelowGlobalBudget(t *testing.T) {
	c := New(1000, 4) // slice 250
	keys := []string{"k0"}
	for i := 1; len(keys) < 2; i++ {
		if k := fmt.Sprintf("k%d", i); c.shardIndex(k) == c.shardIndex(keys[0]) {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		c.Put(k, k, 200)
	}
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted with the cache at 400 of 1000 bytes", k)
		}
	}
	if st := c.Stats(); st.Evictions != 0 || st.Bytes != 400 {
		t.Fatalf("stats %+v, want no evictions and 400 bytes", st)
	}
}

func TestDisabledAndNilCaches(t *testing.T) {
	for name, c := range map[string]*Cache{"disabled": New(0, 4), "nil": nil} {
		c.Put("k", 1, 1)
		if _, ok := c.Get("k"); ok {
			t.Fatalf("%s cache returned a value", name)
		}
		if st := c.Stats(); st.Entries != 0 {
			t.Fatalf("%s cache has entries", name)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	c := New(1000, 4)
	c.Put("a", 1, 10)
	c.Get("a")
	c.Get("a")
	c.Get("missing")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.Budget != 1000 {
		t.Fatalf("budget %d", st.Budget)
	}
}

// TestConcurrentAccess exercises all shards from many goroutines; run with
// -race this doubles as the data-race check for the serving path.
func TestConcurrentAccess(t *testing.T) {
	c := New(1<<16, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%200)
				if v, ok := c.Get(key); ok {
					_ = v.(int)
				} else {
					c.Put(key, i, int64(64+i%128))
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.Budget {
		t.Fatalf("budget overrun under concurrency: %d > %d", st.Bytes, st.Budget)
	}
	if st.Hits+st.Misses == 0 {
		t.Fatal("no operations recorded")
	}
}
