package obs

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultRingSize is how many finished traces a Collector retains when the
// caller does not choose.
const DefaultRingSize = 256

// Collector ties the tracing side of the package together: it owns the
// bounded ring of recent traces and one latency histogram per span name
// ("stage"), and optionally emits slow-request log lines. One Collector per
// serving process.
type Collector struct {
	// SlowThreshold, when > 0, logs every trace whose total duration
	// reaches it (see SetSlowLog).
	slowThreshold time.Duration
	slowLog       *Logger

	ringMu   sync.Mutex
	ring     []TraceSnapshot // circular, ringNext is the oldest slot
	ringNext int
	ringLen  int

	stageMu sync.RWMutex
	stages  map[string]*Histogram
}

// NewCollector builds a collector retaining the last ringSize traces
// (DefaultRingSize when <= 0), with per-stage histograms over the default
// latency buckets.
func NewCollector(ringSize int) *Collector {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Collector{
		ring:   make([]TraceSnapshot, ringSize),
		stages: make(map[string]*Histogram),
	}
}

// SetSlowLog makes Finish write one structured line to log for every trace
// at least threshold long (0 disables).
func (c *Collector) SetSlowLog(threshold time.Duration, log *Logger) {
	c.slowThreshold = threshold
	c.slowLog = log
}

// StartTrace creates a trace with the given ID (NewID() when empty), hangs
// it on the context, and returns both. The caller must pass the trace to
// Finish when the request completes.
func (c *Collector) StartTrace(ctx context.Context, id string) (context.Context, *Trace) {
	if id == "" {
		id = NewID()
	}
	t := &Trace{id: id, start: time.Now(), collector: c}
	return ContextWithTrace(ctx, t), t
}

// Finish seals a trace: it lands in the ring (evicting the oldest) and, if
// it was slow, in the slow-request log.
func (c *Collector) Finish(t *Trace) {
	if t == nil {
		return
	}
	d := time.Since(t.start)
	t.mu.Lock()
	var attrs map[string]string
	if len(t.attrs) > 0 {
		attrs = make(map[string]string, len(t.attrs))
		for k, v := range t.attrs {
			attrs[k] = v
		}
	}
	snap := TraceSnapshot{
		ID:         t.id,
		Start:      t.start,
		DurationNs: d.Nanoseconds(),
		Attrs:      attrs,
		Spans:      append([]SpanSnapshot(nil), t.spans...),
	}
	t.mu.Unlock()

	c.ringMu.Lock()
	c.ring[c.ringNext] = snap
	c.ringNext = (c.ringNext + 1) % len(c.ring)
	if c.ringLen < len(c.ring) {
		c.ringLen++
	}
	c.ringMu.Unlock()

	if c.slowThreshold > 0 && d >= c.slowThreshold && c.slowLog != nil {
		pairs := []string{"slow_request", "true", "trace", snap.ID, "dur", d.String()}
		for _, k := range sortedKeys(snap.Attrs) {
			pairs = append(pairs, k, snap.Attrs[k])
		}
		pairs = append(pairs, "spans", summarizeSpans(snap.Spans))
		c.slowLog.Log(pairs...)
	}
}

// summarizeSpans renders "name:dur,name:dur" for the slow log.
func summarizeSpans(spans []SpanSnapshot) string {
	out := ""
	for i, s := range spans {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%s:%s", s.Name, time.Duration(s.DurationNs))
	}
	return out
}

// Traces returns up to n finished traces, newest first (all retained
// traces when n <= 0).
func (c *Collector) Traces(n int) []TraceSnapshot {
	c.ringMu.Lock()
	defer c.ringMu.Unlock()
	if n <= 0 || n > c.ringLen {
		n = c.ringLen
	}
	out := make([]TraceSnapshot, 0, n)
	for i := 1; i <= n; i++ {
		// ringNext-1 is the newest slot.
		out = append(out, c.ring[(c.ringNext-i+len(c.ring))%len(c.ring)])
	}
	return out
}

// Stage returns the histogram for one span name, creating it on first use.
func (c *Collector) Stage(name string) *Histogram {
	c.stageMu.RLock()
	h, ok := c.stages[name]
	c.stageMu.RUnlock()
	if ok {
		return h
	}
	c.stageMu.Lock()
	defer c.stageMu.Unlock()
	if h, ok = c.stages[name]; ok {
		return h
	}
	h = NewHistogram(nil)
	c.stages[name] = h
	return h
}

func (c *Collector) observeStage(name string, d time.Duration) {
	c.Stage(name).Observe(d)
}

// StageSnapshots returns a stable-ordered snapshot of every stage
// histogram, for the /metrics formatter.
func (c *Collector) StageSnapshots() []StageSnapshot {
	c.stageMu.RLock()
	names := make([]string, 0, len(c.stages))
	for n := range c.stages {
		names = append(names, n)
	}
	hists := make([]*Histogram, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		hists = append(hists, c.stages[n])
	}
	c.stageMu.RUnlock()
	out := make([]StageSnapshot, len(names))
	for i := range names {
		out[i] = StageSnapshot{Name: names[i], Hist: hists[i].Snapshot()}
	}
	return out
}

// StageSnapshot pairs a stage name with its histogram snapshot.
type StageSnapshot struct {
	Name string
	Hist HistogramSnapshot
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
