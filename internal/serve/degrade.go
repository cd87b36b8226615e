package serve

// Graceful degradation: mrserve turns stream-level corruption into coarser
// answers instead of 500s. A level whose streams fail integrity checks is
// quarantined (a TTL'd negative cache on the open container's entry, so a
// repaired container gets retried without a restart and a replaced one
// starts clean), and level/slice requests fall back to the coarsest intact
// level, flagged with an X-Degraded header so clients can tell a downsampled
// answer from the real one. Transient faults never degrade — the reader's
// retry layer absorbs them, and if they outlast the retry budget the request
// fails 503 so the client retries against a healthy replica instead of
// silently getting coarse data.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultio"
	"repro/internal/field"
)

// quarantine is the TTL'd negative cache of one open container's levels
// whose streams failed integrity verification. It lives on the readerEntry,
// so its history is that of one open container version: entries expire so a
// container repaired in place is retried, and a replaced container gets a
// fresh entry with nothing to forget.
type quarantine struct {
	ttl time.Duration
	now func() time.Time // test seam

	mu  sync.Mutex
	bad map[int]time.Time // level -> expiry
}

func newQuarantine(ttl time.Duration) *quarantine {
	return &quarantine{ttl: ttl, now: time.Now, bad: make(map[int]time.Time)}
}

// add quarantines one level and reports whether the entry is new (false
// when it only refreshed an active quarantine's expiry).
func (q *quarantine) add(level int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	exp, ok := q.bad[level]
	q.bad[level] = q.now().Add(q.ttl)
	return !ok || q.now().After(exp)
}

// active reports whether the level is currently quarantined, lazily
// dropping an expired entry.
func (q *quarantine) active(level int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	exp, ok := q.bad[level]
	if !ok {
		return false
	}
	if q.now().After(exp) {
		delete(q.bad, level)
		return false
	}
	return true
}

// levels lists the currently quarantined levels, sorted, pruning expired
// entries.
func (q *quarantine) levels() []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	var levels []int
	for l, exp := range q.bad {
		if now.After(exp) {
			delete(q.bad, l)
			continue
		}
		levels = append(levels, l)
	}
	sort.Ints(levels)
	return levels
}

// quarantineLevel records a corrupt level in the entry's negative cache and
// counts the event.
func (s *Server) quarantineLevel(e *readerEntry, level int) {
	if e.quar.add(level) {
		s.metrics.quarantineEvents.Add(1)
	}
}

// degradedHeader is the X-Degraded value: machine-parseable key=value
// pairs naming what was asked for, what was served, and why.
func degradedHeader(requested, served int, reason string) string {
	return fmt.Sprintf("requested-level=%d; served-level=%d; reason=%s", requested, served, reason)
}

// readDegraded reads level l of a field through read, falling back level
// by level toward the coarsest when the requested one is quarantined or
// turns out corrupt. It returns the field, the level actually served, and
// the degradation reason ("" when the requested level was served intact).
// Non-corrupt errors — context cancellation, transient faults that
// outlasted the retry budget, missing files — abort the walk: degradation
// is a remedy for bad bytes, not for an unreachable backend.
func (s *Server) readDegraded(ctx context.Context, e *readerEntry, l int, read func(lv int) (*field.Field, error)) (*field.Field, int, string, error) {
	n := e.r.NumLevels()
	reason := ""
	var lastErr error
	for lv := l; lv < n; lv++ {
		if e.quar.active(lv) {
			if reason == "" {
				reason = "quarantined"
			}
			continue
		}
		f, err := read(lv)
		if err == nil {
			return f, lv, reason, nil
		}
		if ctx.Err() != nil || !faultio.IsCorrupt(err) {
			return nil, lv, "", err
		}
		s.quarantineLevel(e, lv)
		reason = "corrupt"
		lastErr = err
	}
	if lastErr == nil {
		lastErr = faultio.Corruptf("levels %d..%d all quarantined", l, n-1)
	}
	return nil, -1, "", lastErr
}

// ParseFaultPlan parses the -fault-inject spec: comma-separated key=value
// pairs (seed, transient, bitflip, shortread, latency, maxfaults), e.g.
// "seed=7,transient=0.05,maxfaults=100". Used by the fault-injected smoke
// test in CI and for resilience drills against a staging instance.
func ParseFaultPlan(spec string) (faultio.FaultPlan, error) {
	plan := faultio.FaultPlan{Seed: 1}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return plan, fmt.Errorf("fault spec %q: want key=value", kv)
		}
		var err error
		switch key {
		case "seed":
			plan.Seed, err = strconv.ParseInt(val, 10, 64)
		case "transient":
			plan.TransientProb, err = strconv.ParseFloat(val, 64)
		case "bitflip":
			plan.BitFlipProb, err = strconv.ParseFloat(val, 64)
		case "shortread":
			plan.ShortReadProb, err = strconv.ParseFloat(val, 64)
		case "latency":
			plan.Latency, err = time.ParseDuration(val)
		case "maxfaults":
			plan.MaxFaults, err = strconv.Atoi(val)
		default:
			return plan, fmt.Errorf("fault spec: unknown key %q", key)
		}
		if err != nil {
			return plan, fmt.Errorf("fault spec %q: %v", kv, err)
		}
	}
	return plan, nil
}
