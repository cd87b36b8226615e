package cache

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/raceflag"
)

func TestGetPutAndLRUEviction(t *testing.T) {
	c := New(100)
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
	c := New(100)
	c.Put("a", 1, 40)
	c.Put("a", 2, 50)
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 50 {
		t.Fatalf("after refresh: %d entries / %d bytes", st.Entries, st.Bytes)
	}
	v, ok := c.Get("a")
	if !ok || v.(int) != 2 {
		t.Fatalf("refresh lost the new value: %v %v", v, ok)
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New(100)
	c.Put("huge", 1, 1000)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("value larger than the budget was cached")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized put left residue: %+v", st)
	}
}

// TestHalfBudgetEntryCached is the regression test for the silent
// large-brick drop: a brick of up to half the budget (the expensive
// fine-level case) must cache and be a hit on the second read.
func TestHalfBudgetEntryCached(t *testing.T) {
	c := New(1000)
	c.Put("big", "brick", 400)
	v, ok := c.Get("big")
	if !ok || v.(string) != "brick" {
		t.Fatalf("brick within half the budget was not cached (ok=%v)", ok)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("second read was not a hit: %+v", st)
	}
	// Above half the budget the entry is (deliberately) dropped.
	c.Put("toobig", 1, 501)
	if _, ok := c.Get("toobig"); ok {
		t.Fatal("entry above half the budget was cached")
	}
}

// TestOversizeEntryBorrowsWithoutOverrun fills the cache, inserts an entry
// of nearly half the budget, and checks the budget still holds — the room
// must come out of the LRU tail.
func TestOversizeEntryBorrowsWithoutOverrun(t *testing.T) {
	c := New(1000)
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
		t.Fatalf("budget overrun after oversize put: %d > %d", st.Bytes, st.Budget)
	}
	if _, ok := c.Get("big"); !ok {
		t.Fatal("oversize entry evicted by its own insert")
	}
	if st.Evictions == 0 {
		t.Fatal("oversize insert displaced nothing despite a full cache")
	}
}

// TestNoEvictionBelowGlobalBudget: nothing leaves while the cache has room.
// Two large entries (the fine-level bricks) must both stay while together
// they fill less than the budget.
func TestNoEvictionBelowGlobalBudget(t *testing.T) {
	c := New(1000)
	keys := []string{"k0", "k1"}
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
	for name, c := range map[string]*Cache{"disabled": New(0), "nil": nil} {
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
	c := New(1000)
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

// TestConcurrentAccess exercises the cache from many goroutines; run with
// -race this doubles as the data-race check for the serving path.
func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 16)
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

// TestEvictionIsLeastRecentlyUsedAcrossKeys: the victim of an over-budget
// insert is the least recently used entry of the whole cache, whatever the
// keys, and nothing else leaves.
func TestEvictionIsLeastRecentlyUsedAcrossKeys(t *testing.T) {
	c := New(1000)
	c.Put("A", "a", 300)
	c.Put("B", "b", 300)
	if _, ok := c.Get("B"); !ok {
		t.Fatal("B missing")
	}
	c.Put("C", "c", 450)
	if _, ok := c.Get("B"); !ok {
		t.Fatal("recently used B was evicted")
	}
	if _, ok := c.Get("A"); ok {
		t.Fatal("least recently used A survived an over-budget insert")
	}
	if st := c.Stats(); st.Bytes != 750 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 750 bytes after 1 eviction", st)
	}
}

// TestDoLoadsOnce: concurrent Do calls on one cold key run the load once —
// the rest join it and share its value. A cache with a budget then returns
// the stored value without loading again; a budget-0 cache coalesces but
// stores nothing; a nil cache just runs the load.
func TestDoLoadsOnce(t *testing.T) {
	for name, c := range map[string]*Cache{"cached": New(1000), "disabled": New(0)} {
		t.Run(name, func(t *testing.T) {
			const callers = 8
			var loads, joined atomic.Int64
			release := make(chan struct{})
			load := func() (any, int64, error) {
				loads.Add(1)
				<-release
				return "v", 10, nil
			}
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, shared, err := c.Do("k", load)
					if err != nil || v.(string) != "v" {
						t.Errorf("Do = %v, %v", v, err)
					}
					if shared {
						joined.Add(1)
					}
				}()
			}
			// Release the load once every other caller waits on it. Should
			// the frames parkedInDo looks for be renamed, fail, not hang.
			parked, deadline := 0, time.Now().Add(parkDeadline)
			for parked = parkedInDo(); parked < callers-1 && time.Now().Before(deadline); parked = parkedInDo() {
				runtime.Gosched()
			}
			close(release)
			wg.Wait()
			if parked < callers-1 {
				t.Fatalf("%d of %d callers seen waiting in Do after %v", parked, callers-1, parkDeadline)
			}
			if loads.Load() != 1 || joined.Load() != callers-1 {
				t.Fatalf("%d loads, %d joined; want 1 load joined by %d", loads.Load(), joined.Load(), callers-1)
			}
			c.Do("k", load)
			want := int64(1) // the first load's value was stored
			if c.Stats().Budget == 0 {
				want = 2
			}
			if loads.Load() != want {
				t.Fatalf("a later Do brought the loads to %d, want %d", loads.Load(), want)
			}
		})
	}
	v, shared, err := (*Cache)(nil).Do("k", func() (any, int64, error) { return 1, 1, nil })
	if v.(int) != 1 || shared || err != nil {
		t.Fatalf("nil cache Do = %v, %v, %v", v, shared, err)
	}
}

// TestFailedLoadNotStored: a load's error reaches its caller and nothing is
// stored, so the next Do loads again.
func TestFailedLoadNotStored(t *testing.T) {
	c := New(1000)
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (any, int64, error) { return nil, 0, boom }); err != boom {
		t.Fatalf("Do err = %v, want %v", err, boom)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("a failed load left %d entries", st.Entries)
	}
	v, _, err := c.Do("k", func() (any, int64, error) { return 2, 10, nil })
	if err != nil || v.(int) != 2 {
		t.Fatalf("retry Do = %v, %v", v, err)
	}
	if got, ok := c.Get("k"); !ok || got.(int) != 2 {
		t.Fatal("a successful load was not stored")
	}
}

// parkDeadline bounds how long a test waits for goroutines to park in Do.
const parkDeadline = 10 * time.Second

// parkedInDo counts the goroutines blocked in Do waiting on a load in
// flight.
func parkedInDo() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "sync.(*WaitGroup).Wait") && strings.Contains(g, "cache.(*Cache).Do") {
			n++
		}
	}
	return n
}

// TestCacheAllocBudget pins the cache's own allocations: a probe, hit or
// miss, and a Do on a stored key allocate nothing; storing a new key costs
// its entry and list element.
func TestCacheAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("malloc counts are not meaningful under the race detector")
	}
	c := New(1 << 20)
	c.Put("hot", "brick", 100)
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	load := func() (any, int64, error) { return nil, 0, errors.New("loaded a stored key") }
	for _, tc := range []struct {
		name   string
		budget float64
		op     func()
	}{
		{"Get hit", 0, func() { c.Get("hot") }},
		{"Get miss", 0, func() { c.Get("cold") }},
		{"Do stored", 0, func() { c.Do("hot", load) }},
		{"Put new key", 2, func() { c.Put(keys[0], 1, 100); keys = keys[1:] }},
	} {
		if n := testing.AllocsPerRun(100, tc.op); n > tc.budget {
			t.Errorf("%s: %v allocations, budget %v", tc.name, n, tc.budget)
		}
	}
}
