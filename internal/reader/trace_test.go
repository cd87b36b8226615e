package reader

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faultio"
	"repro/internal/obs"
)

// TestTracePropagatesThroughReadPath is the cross-layer observability
// contract: one trace, carried by context from the caller through the
// reader into the cache probe and the codec decode, must come back with
// the original trace ID and the read_level → stream_read / decode /
// cache_miss span chain (and a cache_hit on the second read).
func TestTracePropagatesThroughReadPath(t *testing.T) {
	h := testHierarchy(t, 32, 3)
	blob := compress(t, h, core.Options{EB: 1e-3, Arrangement: core.ArrangeTAC})
	r := mustOpen(t, blob)

	c := obs.NewCollector(8)
	ctx, tr := c.StartTrace(context.Background(), "reader-trace-1")
	if _, err := r.ReadLevelCtx(ctx, r.NumLevels()-1); err != nil {
		t.Fatal(err)
	}
	c.Finish(tr)

	snaps := c.Traces(1)
	if len(snaps) != 1 || snaps[0].ID != "reader-trace-1" {
		t.Fatalf("trace did not survive the read path: %+v", snaps)
	}
	byName := map[string]SpanCount{}
	for _, s := range snaps[0].Spans {
		e := byName[s.Name]
		e.n++
		e.parent = s.Parent
		byName[s.Name] = e
	}
	if byName["read_level"].n != 1 {
		t.Fatalf("missing read_level span: %v", byName)
	}
	// cache_miss, stream_read, and decode all parent under read_level:
	// stream_read is a closed sibling by the time decode starts.
	for _, name := range []string{"cache_miss", "stream_read", "decode"} {
		e := byName[name]
		if e.n == 0 {
			t.Errorf("missing %s span (spans: %v)", name, byName)
		}
		if e.parent != "read_level" {
			t.Errorf("%s parent %q want %q", name, e.parent, "read_level")
		}
	}
	// Second read of the same level must be a pure cache hit on the trace.
	ctx2, tr2 := c.StartTrace(context.Background(), "reader-trace-2")
	if _, err := r.ReadLevelCtx(ctx2, r.NumLevels()-1); err != nil {
		t.Fatal(err)
	}
	c.Finish(tr2)
	hot := c.Traces(1)[0]
	var hits, decodes int
	for _, s := range hot.Spans {
		switch s.Name {
		case "cache_hit":
			hits++
		case "decode":
			decodes++
		}
	}
	if hits == 0 || decodes != 0 {
		t.Fatalf("hot read: %d cache_hit, %d decode spans, want >0 and 0", hits, decodes)
	}
}

type SpanCount struct {
	n      int
	parent string
}

// payloadOps are the reader entry points that fetch stream payloads from the
// source; each must carry its context down to the retry layer.
var payloadOps = map[string]func(context.Context, *Reader) error{
	"read_level": func(ctx context.Context, r *Reader) error {
		_, err := r.ReadLevelCtx(ctx, 0)
		return err
	},
	"verify": func(ctx context.Context, r *Reader) error {
		res, err := r.Verify(ctx)
		if err == nil && !res.OK() {
			err = res.Faults[0].Err
		}
		return err
	},
}

// TestRetryEventsLandOnTrace injects transient faults and checks the retry
// breadcrumbs appear as events on the span in flight (stream_read for a
// read, verify for a scrub).
func TestRetryEventsLandOnTrace(t *testing.T) {
	h := testHierarchy(t, 32, 5)
	blob := compress(t, h, core.Options{EB: 1e-3})
	for name, op := range payloadOps {
		t.Run(name, func(t *testing.T) {
			r := mustOpen(t, blob,
				WithSourceWrap(func(src io.ReaderAt) io.ReaderAt {
					return faultio.NewFaultReaderAt(src, faultio.FaultPlan{Seed: 1, TransientProb: 0.5, MaxFaults: 4})
				}),
				withRetryPolicy(faultio.RetryPolicy{MaxAttempts: 5}),
			)
			atOpen := r.Stats().Retries

			c := obs.NewCollector(4)
			ctx, tr := c.StartTrace(context.Background(), "retry-trace")
			if err := op(ctx, r); err != nil {
				t.Fatal(err)
			}
			c.Finish(tr)
			if r.Stats().Retries == atOpen {
				t.Skip("fault plan injected no retries on this read path")
			}
			var events int
			for _, s := range c.Traces(1)[0].Spans {
				events += len(s.Events)
			}
			if events == 0 {
				t.Fatal("retries happened but no retry events landed on the trace")
			}
		})
	}
}

// TestCanceledContextStopsRetries: a canceled request must not sit through
// the retry backoff schedule — RetryReaderAt.ReadAtCtx aborts between
// attempts, every payload read reaches it with the request's context, and
// fetchStream refuses to start work on a dead context.
func TestCanceledContextStopsRetries(t *testing.T) {
	h := testHierarchy(t, 32, 7)
	blob := compress(t, h, core.Options{EB: 1e-3})
	r := mustOpen(t, blob)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.ReadLevelCtx(ctx, 0); err == nil {
		t.Fatal("read with canceled context succeeded")
	}

	// Directly on the retry layer: an always-faulting source under a huge
	// attempt budget must return promptly once the context is canceled.
	faulty := faultio.NewFaultReaderAt(failingReaderAt{}, faultio.FaultPlan{Seed: 1, TransientProb: 1})
	rr := faultio.NewRetryReaderAt(faulty, faultio.RetryPolicy{MaxAttempts: 1 << 20})
	buf := make([]byte, 8)
	if _, err := rr.ReadAtCtx(ctx, buf, 0); err == nil {
		t.Fatal("ReadAtCtx with canceled context succeeded")
	}
	if faulty.Reads() > 2 {
		t.Fatalf("canceled context still allowed %d attempts", faulty.Reads())
	}

	// Through the reader: the request is canceled while its first payload
	// read is failing. The read must give up there, not spend the attempt
	// budget on a request nobody is waiting for.
	for name, op := range payloadOps {
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancelingReaderAt{cancel: cancel}
		r := mustOpen(t, blob,
			WithSourceWrap(func(in io.ReaderAt) io.ReaderAt { src.ReaderAt = in; return src }),
			withRetryPolicy(faultio.RetryPolicy{MaxAttempts: 1000}),
		)
		src.armed.Store(true)
		if err := op(ctx, r); err == nil {
			t.Fatalf("%s: succeeded on a canceled, failing source", name)
		}
		if n := src.failed.Load(); n > 2 {
			t.Fatalf("%s: canceled context still allowed %d attempts", name, n)
		}
	}
}

type failingReaderAt struct{}

func (failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	return 0, io.ErrUnexpectedEOF
}

// cancelingReaderAt passes reads through until armed; from then on every
// read cancels the request's context and fails transiently.
type cancelingReaderAt struct {
	io.ReaderAt
	cancel context.CancelFunc
	armed  atomic.Bool
	failed atomic.Int64
}

func (c *cancelingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if !c.armed.Load() {
		return c.ReaderAt.ReadAt(p, off)
	}
	c.failed.Add(1)
	c.cancel()
	return 0, faultio.Transient(errors.New("injected: storage went away"))
}
