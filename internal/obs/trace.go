package obs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Trace is one request's span collection, created by Collector.StartTrace
// and carried by context. Spans append to it as they end; Collector.Finish
// snapshots it into the trace ring.
type Trace struct {
	id        string
	start     time.Time
	collector *Collector

	mu    sync.Mutex
	attrs map[string]string
	spans []SpanSnapshot
}

// ID returns the trace's request ID.
func (t *Trace) ID() string { return t.id }

// Start returns the trace's start time.
func (t *Trace) Start() time.Time { return t.start }

// SetAttr records a trace-level attribute (endpoint, status, degraded) that
// /debug/traces and the slow-request log report.
func (t *Trace) SetAttr(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.attrs == nil {
		t.attrs = make(map[string]string, 4)
	}
	t.attrs[key] = value
	t.mu.Unlock()
}

// record appends a finished span and feeds the per-stage histogram.
func (t *Trace) record(s *Span, d time.Duration) {
	snap := SpanSnapshot{
		Name:       s.name,
		Parent:     s.parent,
		StartNs:    s.start.Sub(t.start).Nanoseconds(),
		DurationNs: d.Nanoseconds(),
		Tags:       s.tags,
		Events:     s.events,
	}
	t.mu.Lock()
	t.spans = append(t.spans, snap)
	t.mu.Unlock()
	if t.collector != nil {
		t.collector.observeStage(s.name, d)
	}
}

// Span is one timed operation inside a trace. A Span belongs to the
// goroutine that started it: Set* and End must not race with each other.
// The nil *Span (returned when the context has no trace) no-ops every
// method, so instrumented code needs no guards.
type Span struct {
	trace  *Trace
	name   string
	parent string
	start  time.Time
	tags   map[string]string
	events []string
}

// SetTag attaches a key/value tag to the span.
func (s *Span) SetTag(key, value string) {
	if s == nil {
		return
	}
	if s.tags == nil {
		s.tags = make(map[string]string, 2)
	}
	s.tags[key] = value
}

// Eventf appends a formatted event (a retry, an injected fault) to the
// span's log.
func (s *Span) Eventf(format string, args ...any) {
	if s == nil {
		return
	}
	s.events = append(s.events, fmt.Sprintf(format, args...))
}

// End stops the span's clock and publishes it into its trace (and the
// collector's stage histogram). End must be called exactly once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.trace.record(s, time.Since(s.start))
}

// SpanSnapshot is a finished span as exposed by /debug/traces.
type SpanSnapshot struct {
	Name       string            `json:"name"`
	Parent     string            `json:"parent,omitempty"`
	StartNs    int64             `json:"start_ns"`
	DurationNs int64             `json:"duration_ns"`
	Tags       map[string]string `json:"tags,omitempty"`
	Events     []string          `json:"events,omitempty"`
}

// TraceSnapshot is a finished trace as exposed by /debug/traces.
type TraceSnapshot struct {
	ID         string            `json:"id"`
	Start      time.Time         `json:"start"`
	DurationNs int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Spans      []SpanSnapshot    `json:"spans"`
}

type traceKey struct{}
type spanKey struct{}

// ContextWithTrace hangs a trace on the context.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// CurrentSpan returns the innermost open span started through this
// context, or nil.
func CurrentSpan(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a span named name under the context's current span. The
// returned context parents further spans under the new one. Without a trace
// on the context it returns ctx unchanged and a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TraceFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	s := &Span{trace: t, name: name, start: time.Now()}
	if p := CurrentSpan(ctx); p != nil {
		s.parent = p.name
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// Record publishes an already-measured leaf span: an operation too small to
// carry child spans (a cache probe), timed from start to now. tags are
// alternating key/value pairs.
func Record(ctx context.Context, name string, start time.Time, tags ...string) {
	t := TraceFrom(ctx)
	if t == nil {
		return
	}
	s := &Span{trace: t, name: name, start: start}
	if p := CurrentSpan(ctx); p != nil {
		s.parent = p.name
	}
	for i := 0; i+1 < len(tags); i += 2 {
		s.SetTag(tags[i], tags[i+1])
	}
	s.End()
}

// Eventf appends a formatted event to the context's current span. Layers
// below the span tree (the retry reader) use it to leave fault breadcrumbs
// on whatever operation is in flight.
func Eventf(ctx context.Context, format string, args ...any) {
	CurrentSpan(ctx).Eventf(format, args...)
}
