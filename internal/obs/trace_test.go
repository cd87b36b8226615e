package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanPropagation walks a trace through nested contexts — the
// serve→read→decode shape — and checks parentage, tags, and events all
// land in the finished snapshot under the original trace ID.
func TestSpanPropagation(t *testing.T) {
	c := NewCollector(8)
	ctx, tr := c.StartTrace(context.Background(), "req-42")
	if tr.ID() != "req-42" {
		t.Fatalf("trace id %q", tr.ID())
	}
	if TraceFrom(ctx) != tr {
		t.Fatal("trace not on context")
	}

	ctx1, serve := StartSpan(ctx, "serve:level")
	ctx2, read := StartSpan(ctx1, "read_level")
	ctx3, dec := StartSpan(ctx2, "decode")
	dec.SetTag("codec", "flate")
	Eventf(ctx3, "retry attempt=%d", 1)
	dec.End()
	Record(ctx2, "cache_miss", time.Now(), "key", "f/L0/B3")
	read.End()
	serve.End()
	tr.SetAttr("endpoint", "level")
	c.Finish(tr)

	traces := c.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	snap := traces[0]
	if snap.ID != "req-42" || snap.Attrs["endpoint"] != "level" {
		t.Fatalf("snapshot %+v", snap)
	}
	byName := map[string]SpanSnapshot{}
	for _, s := range snap.Spans {
		byName[s.Name] = s
	}
	for name, parent := range map[string]string{
		"serve:level": "",
		"read_level":  "serve:level",
		"decode":      "read_level",
		"cache_miss":  "read_level",
	} {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("missing span %q in %v", name, snap.Spans)
		}
		if s.Parent != parent {
			t.Errorf("span %q parent %q want %q", name, s.Parent, parent)
		}
	}
	if byName["decode"].Tags["codec"] != "flate" {
		t.Errorf("decode tags %v", byName["decode"].Tags)
	}
	if len(byName["decode"].Events) != 1 || !strings.Contains(byName["decode"].Events[0], "attempt=1") {
		t.Errorf("decode events %v", byName["decode"].Events)
	}
	if byName["cache_miss"].Tags["key"] != "f/L0/B3" {
		t.Errorf("cache_miss tags %v", byName["cache_miss"].Tags)
	}
	// Stage histograms were fed by span End.
	stages := c.StageSnapshots()
	var names []string
	for _, st := range stages {
		names = append(names, st.Name)
	}
	for _, want := range []string{"serve:level", "read_level", "decode", "cache_miss"} {
		if c.Stage(want).Snapshot().Count != 1 {
			t.Errorf("stage %q count != 1 (stages seen: %v)", want, names)
		}
	}
}

// TestNilSafety: instrumented library code runs with no trace on the
// context; every obs call must be a no-op, not a panic.
func TestNilSafety(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "orphan")
	if s != nil || ctx2 != ctx {
		t.Fatal("traceless StartSpan should return ctx unchanged and nil span")
	}
	s.SetTag("k", "v")
	s.Eventf("e %d", 1)
	s.End()
	Record(ctx, "leaf", time.Now())
	Eventf(ctx, "event")
	var tr *Trace
	tr.SetAttr("k", "v")
	NewCollector(4).Finish(nil)
	var lg *Logger
	lg.Log("k", "v")
	var sm *Sampler
	if sm.Allow() {
		t.Fatal("nil sampler allowed")
	}
}

// TestTraceRingEviction overfills the ring and checks only the newest
// ringSize traces survive, newest first.
func TestTraceRingEviction(t *testing.T) {
	const ringSize = 4
	c := NewCollector(ringSize)
	for i := 0; i < 10; i++ {
		_, tr := c.StartTrace(context.Background(), fmt.Sprintf("t%d", i))
		c.Finish(tr)
	}
	got := c.Traces(0)
	if len(got) != ringSize {
		t.Fatalf("ring holds %d traces, want %d", len(got), ringSize)
	}
	for i, snap := range got {
		want := fmt.Sprintf("t%d", 9-i)
		if snap.ID != want {
			t.Errorf("slot %d: id %q want %q", i, snap.ID, want)
		}
	}
	if limited := c.Traces(2); len(limited) != 2 || limited[0].ID != "t9" {
		t.Errorf("Traces(2) = %v", limited)
	}
}

// TestTraceRingConcurrent finishes traces from many goroutines while a
// reader drains Traces; -race validates the locking.
func TestTraceRingConcurrent(t *testing.T) {
	c := NewCollector(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, tr := c.StartTrace(context.Background(), "")
				_, s := StartSpan(ctx, "work")
				s.End()
				tr.SetAttr("g", fmt.Sprint(g))
				c.Finish(tr)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			for _, snap := range c.Traces(0) {
				_ = snap.Attrs["g"]
			}
		}
	}()
	wg.Wait()
	<-done
	if got := c.Stage("work").Snapshot().Count; got != 8*200 {
		t.Fatalf("stage count %d want %d", got, 8*200)
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("id %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

// TestSlowLog checks the threshold gate and the rendered line shape.
func TestSlowLog(t *testing.T) {
	var buf strings.Builder
	c := NewCollector(4)
	c.SetSlowLog(time.Nanosecond, NewLogger(&buf))
	ctx, tr := c.StartTrace(context.Background(), "slow-1")
	_, s := StartSpan(ctx, "read_level")
	time.Sleep(time.Millisecond)
	s.End()
	tr.SetAttr("endpoint", "level")
	c.Finish(tr)
	line := buf.String()
	for _, want := range []string{"slow_request=true", "trace=slow-1", "endpoint=level", "read_level:"} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log missing %q: %s", want, line)
		}
	}

	buf.Reset()
	c.SetSlowLog(time.Hour, NewLogger(&buf))
	_, fast := c.StartTrace(context.Background(), "fast-1")
	c.Finish(fast)
	if buf.Len() != 0 {
		t.Errorf("fast trace logged: %s", buf.String())
	}
}

func TestLoggerQuoting(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf)
	l.now = func() time.Time { return time.Unix(0, 0).UTC() }
	l.Log("plain", "v", "spacey", "a b", "empty", "", "eq", "a=b", "odd")
	got := buf.String()
	want := `ts=1970-01-01T00:00:00Z plain=v spacey="a b" empty="" eq="a=b"` + "\n"
	if got != want {
		t.Errorf("log line\n got %q\nwant %q", got, want)
	}
}

func TestSampler(t *testing.T) {
	one := NewSampler(1)
	for i := 0; i < 5; i++ {
		if !one.Allow() {
			t.Fatal("every=1 must always allow")
		}
	}
	third := NewSampler(3)
	allowed := 0
	for i := 0; i < 30; i++ {
		if third.Allow() {
			allowed++
		}
	}
	if allowed != 10 {
		t.Fatalf("every=3 allowed %d of 30", allowed)
	}
	if NewSampler(0).Allow() {
		t.Fatal("every=0 must never allow")
	}
}
