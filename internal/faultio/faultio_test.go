package faultio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassUnknown},
		{base, ClassUnknown},
		{Transient(base), ClassTransient},
		{Corrupt(base), ClassCorrupt},
		{Permanent(base), ClassPermanent},
		{fmt.Errorf("wrapped: %w", Corrupt(base)), ClassCorrupt},
		{fmt.Errorf("ctx: %w", fmt.Errorf("mid: %w", Transient(base))), ClassTransient},
		{io.ErrUnexpectedEOF, ClassCorrupt},
		{fmt.Errorf("short: %w", io.ErrUnexpectedEOF), ClassCorrupt},
		{Corruptf("crc mismatch at %d", 7), ClassCorrupt},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	// Classification survives errors.Is on the wrapped error.
	if !errors.Is(Transient(ErrInjectedTransient), ErrInjectedTransient) {
		t.Error("Transient wrapper hides the underlying error from errors.Is")
	}
	// Marking nil stays nil.
	if Transient(nil) != nil || Corrupt(nil) != nil || Permanent(nil) != nil {
		t.Error("marking a nil error must return nil")
	}
}

// scriptedReaderAt fails its first calls with the scripted errors, in
// order, and serves data cleanly after them. ctxCalls counts the reads that
// arrived through ReadAtCtx.
type scriptedReaderAt struct {
	data     []byte
	errs     []error
	calls    int
	ctxCalls int
}

func (s *scriptedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	s.calls++
	if s.calls <= len(s.errs) {
		return 0, s.errs[s.calls-1]
	}
	return copy(p, s.data[off:]), nil
}

func (s *scriptedReaderAt) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	s.ctxCalls++
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.ReadAt(p, off)
}

func TestRetryOnlyRetriesTransient(t *testing.T) {
	src := &scriptedReaderAt{data: []byte("payload"), errs: []error{Corrupt(errors.New("bad bytes"))}}
	_, err := NewRetryReaderAt(src, RetryPolicy{MaxAttempts: 5}).ReadAt(make([]byte, 4), 0)
	if src.calls != 1 {
		t.Fatalf("corrupt error retried %d times", src.calls-1)
	}
	if !IsCorrupt(err) {
		t.Fatalf("error lost its class: %v", err)
	}

	blip := Transient(errors.New("blip"))
	src = &scriptedReaderAt{data: []byte("payload"), errs: []error{blip, blip}}
	buf := make([]byte, 4)
	n, err := NewRetryReaderAt(src, RetryPolicy{MaxAttempts: 5}).ReadAt(buf, 1)
	if err != nil || src.calls != 3 {
		t.Fatalf("transient retry: err=%v calls=%d", err, src.calls)
	}
	if string(buf[:n]) != "aylo" {
		t.Fatalf("recovered read = %q, want %q", buf[:n], "aylo")
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	var slept []time.Duration
	retried := 0
	p := RetryPolicy{
		MaxAttempts: 4,
		Backoff:     time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
		OnRetry:     func(error) { retried++ },
	}
	always := Transient(errors.New("always"))
	src := &scriptedReaderAt{data: []byte("payload"), errs: []error{always, always, always, always, always}}
	_, err := NewRetryReaderAt(src, p).ReadAt(make([]byte, 4), 0)
	if src.calls != 4 || retried != 3 {
		t.Fatalf("calls=%d retried=%d, want 4/3", src.calls, retried)
	}
	if !IsTransient(err) {
		t.Fatalf("final error lost its class: %v", err)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff %d = %v, want %v (doubling)", i, slept[i], want[i])
		}
	}
}

// TestRetryReaderAtPassesContext checks that a wrapped reader with a
// context-aware read gets the caller's context on every attempt, so a
// canceled request reaches the read itself.
func TestRetryReaderAtPassesContext(t *testing.T) {
	src := &scriptedReaderAt{data: []byte("payload")}
	r := NewRetryReaderAt(src, RetryPolicy{MaxAttempts: 3})
	if _, err := r.ReadAtCtx(context.Background(), make([]byte, 4), 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.ReadAtCtx(ctx, make([]byte, 4), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled read: err=%v, want context.Canceled", err)
	}
	if src.ctxCalls != 2 || src.calls != 1 {
		t.Fatalf("ctxCalls=%d calls=%d, want 2/1 (every read through ReadAtCtx)", src.ctxCalls, src.calls)
	}
}

func TestRetryReaderAtAbsorbsTransients(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	inner := NewFaultReaderAt(bytes.NewReader(data), FaultPlan{
		Seed: 1, TransientProb: 0.5, MaxFaults: 8,
	})
	retries := 0
	r := NewRetryReaderAt(inner, RetryPolicy{MaxAttempts: 5, OnRetry: func(error) { retries++ }})
	for off := 0; off < len(data); off += 7 {
		buf := make([]byte, 7)
		n, err := r.ReadAt(buf, int64(off))
		end := off + 7
		if end > len(data) {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("tail read: err=%v", err)
			}
			end = len(data)
		} else if err != nil {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if !bytes.Equal(buf[:n], data[off:end]) {
			t.Fatalf("ReadAt(%d) = %q, want %q", off, buf[:n], data[off:end])
		}
	}
	if inner.Faults() == 0 {
		t.Fatal("fault injector injected nothing; test proves nothing")
	}
	if retries == 0 {
		t.Fatal("no retries observed despite injected transients")
	}
}

func TestRetryReaderAtRetriesShortReads(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	inner := NewFaultReaderAt(bytes.NewReader(data), FaultPlan{
		Seed: 3, ShortReadProb: 0.6, MaxFaults: 3,
	})
	r := NewRetryReaderAt(inner, RetryPolicy{MaxAttempts: 5})
	buf := make([]byte, 64)
	if _, err := r.ReadAt(buf, 10); err != nil {
		t.Fatalf("short reads not absorbed: %v", err)
	}
	if !bytes.Equal(buf, data[10:74]) {
		t.Fatal("retried read returned wrong bytes")
	}
}

func TestRetryReaderAtSurfacesTruncation(t *testing.T) {
	data := make([]byte, 128)
	inner := NewFaultReaderAt(bytes.NewReader(data), FaultPlan{Seed: 1, TruncateAt: 64})
	r := NewRetryReaderAt(inner, RetryPolicy{MaxAttempts: 3})
	buf := make([]byte, 32)
	// Fully before the truncation point: clean.
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("read before truncation: %v", err)
	}
	// Straddling it: a persistent unexpected EOF, classified corrupt.
	_, err := r.ReadAt(buf, 48)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !IsCorrupt(err) {
		t.Fatalf("straddling read: err=%v class=%v, want corrupt unexpected EOF", err, Classify(err))
	}
	// Entirely past it: EOF.
	if _, err := r.ReadAt(buf, 100); !errors.Is(err, io.EOF) {
		t.Fatalf("read past truncation: %v, want EOF", err)
	}
}

func TestFaultReaderAtDeterminism(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	run := func() ([]byte, int) {
		f := NewFaultReaderAt(bytes.NewReader(data), FaultPlan{
			Seed: 42, BitFlipProb: 0.3, TransientProb: 0.1, ShortReadProb: 0.1,
		})
		var out []byte
		for off := 0; off < len(data); off += 64 {
			buf := make([]byte, 64)
			n, _ := f.ReadAt(buf, int64(off))
			out = append(out, buf[:n]...)
		}
		return out, f.Faults()
	}
	a, fa := run()
	b, fb := run()
	if fa != fb || !bytes.Equal(a, b) {
		t.Fatalf("same seed, different faults: %d vs %d injected", fa, fb)
	}
	if fa == 0 {
		t.Fatal("plan injected nothing")
	}
}

func TestFaultReaderAtBitFlipsCorrupt(t *testing.T) {
	data := make([]byte, 1024)
	f := NewFaultReaderAt(bytes.NewReader(data), FaultPlan{Seed: 9, BitFlipProb: 1})
	buf := make([]byte, 1024)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, data) {
		t.Fatal("BitFlipProb=1 returned clean bytes")
	}
}
