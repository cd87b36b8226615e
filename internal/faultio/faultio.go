// Package faultio is the corruption-resilience substrate shared by the
// container reader, the sequential decoder, and the mrserve serving path:
//
//   - a typed error-classification layer that splits I/O and decode failures
//     into Transient (worth retrying: a flaky read, an interrupted syscall),
//     Corrupt (the bytes are wrong: a checksum mismatch, a garbled stream),
//     and Permanent (retrying cannot help: bad parameters, missing files);
//   - an io.ReaderAt adapter that retries every ReadAt with bounded backoff,
//     so transient storage faults are absorbed below the decode layer;
//   - a deterministic, seed-driven fault injector for io.ReaderAt (bit
//     flips, truncations, short reads, transient errors, injected latency)
//     so the failure paths above are testable without real broken
//     hardware.
//
// The package depends only on the standard library plus the leaf obs
// package (retry events land on the request trace) and is imported from
// below every decode layer, so any package may classify its errors without
// import cycles.
package faultio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// Class partitions failures by the only property the serving path cares
// about: what to do next.
type Class int

const (
	// ClassUnknown is an unclassified error (treated as Permanent: never
	// retried, never quarantined as data damage).
	ClassUnknown Class = iota
	// ClassTransient errors are worth retrying: the operation may succeed on
	// the next attempt (flaky network storage, interrupted syscalls,
	// injected test faults).
	ClassTransient
	// ClassCorrupt errors mean the bytes themselves are wrong — checksum
	// mismatches, truncated or garbled streams. Retrying the same bytes is
	// pointless; the serving path quarantines the stream and degrades.
	ClassCorrupt
	// ClassPermanent errors cannot be helped by retrying or degrading data
	// quality: missing files, invalid parameters, closed handles.
	ClassPermanent
)

func (c Class) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassCorrupt:
		return "corrupt"
	case ClassPermanent:
		return "permanent"
	}
	return "unknown"
}

// classified attaches a Class to an error; errors.As unwraps through it.
type classified struct {
	class Class
	err   error
}

func (e *classified) Error() string { return e.class.String() + ": " + e.err.Error() }
func (e *classified) Unwrap() error { return e.err }

// mark wraps err with a class; a nil err stays nil.
func mark(class Class, err error) error {
	if err == nil {
		return nil
	}
	return &classified{class: class, err: err}
}

// Transient marks err as worth retrying.
func Transient(err error) error { return mark(ClassTransient, err) }

// Corrupt marks err as data damage: retrying the same bytes cannot help.
func Corrupt(err error) error { return mark(ClassCorrupt, err) }

// Permanent marks err as hopeless: neither retrying nor degrading helps.
func Permanent(err error) error { return mark(ClassPermanent, err) }

// Corruptf is Corrupt(fmt.Errorf(...)).
func Corruptf(format string, args ...any) error {
	return Corrupt(fmt.Errorf(format, args...))
}

// Classify returns the innermost explicit Class attached to err, falling
// back to structural rules for common unclassified errors: unexpected EOFs
// from positioned reads are corruption (the bytes the index promised are
// not there), everything else is ClassUnknown.
func Classify(err error) Class {
	if err == nil {
		return ClassUnknown
	}
	var ce *classified
	if errors.As(err, &ce) {
		return ce.class
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return ClassCorrupt
	}
	return ClassUnknown
}

// IsTransient reports whether err carries ClassTransient.
func IsTransient(err error) bool { return Classify(err) == ClassTransient }

// IsCorrupt reports whether err carries ClassCorrupt (explicitly, or
// structurally via an unexpected EOF).
func IsCorrupt(err error) bool { return Classify(err) == ClassCorrupt }

// --- retry ------------------------------------------------------------------

// RetryPolicy bounds the retry loop absorbing transient faults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (1 = no retries). Zero or
	// negative means the DefaultRetryPolicy attempt count.
	MaxAttempts int
	// Backoff is the sleep before the first retry; it doubles on each
	// further retry. Zero means no sleeping (tests); the serving default is
	// DefaultRetryPolicy.Backoff.
	Backoff time.Duration
	// Sleep replaces time.Sleep (tests). Nil uses time.Sleep.
	Sleep func(time.Duration)
	// OnRetry, if set, observes each retried error (metrics counters).
	OnRetry func(error)
}

// DefaultRetryPolicy is the serving path's bounded retry: three total
// attempts with 2 ms exponential backoff, so a blip costs at most ~6 ms
// before surfacing.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 3, Backoff: 2 * time.Millisecond}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// ReaderAtCtx is a positioned reader whose read also takes the request's
// context, so cancellation reaches the read itself (a ranged GET, say).
type ReaderAtCtx interface {
	ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error)
}

// RetryReaderAt wraps an io.ReaderAt so every ReadAt absorbs transient
// faults under the policy's bounded retry. Positioned reads are idempotent,
// so short reads (io.ErrUnexpectedEOF — a torn read, or a truncated object)
// are retried too; a read that keeps coming up short surfaces with its
// natural Corrupt classification after the attempts are exhausted. Corrupt
// and Permanent errors surface immediately. Safe for concurrent use when
// the wrapped ReaderAt is.
type RetryReaderAt struct {
	R      io.ReaderAt
	Policy RetryPolicy
}

// NewRetryReaderAt wraps r with the given retry policy.
func NewRetryReaderAt(r io.ReaderAt, p RetryPolicy) *RetryReaderAt {
	return &RetryReaderAt{R: r, Policy: p}
}

func (r *RetryReaderAt) ReadAt(p []byte, off int64) (int, error) {
	return r.ReadAtCtx(context.Background(), p, off)
}

// ReadAtCtx is ReadAt with request-scoped observability and cancellation:
// each retried fault is recorded as an event on the context's current trace
// span, and a canceled context stops the retry loop between attempts (the
// cancellation surfaces as Permanent — retrying cannot help a dead request).
// When the wrapped reader is a ReaderAtCtx, ctx also reaches each read.
func (r *RetryReaderAt) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	pol := r.Policy.withDefaults()
	backoff := pol.Backoff
	rc, _ := r.R.(ReaderAtCtx)
	var n int
	var err error
	for attempt := 0; ; attempt++ {
		if rc != nil {
			n, err = rc.ReadAtCtx(ctx, p, off)
		} else {
			n, err = r.R.ReadAt(p, off)
		}
		if err == nil || errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			// A clean end-of-source EOF is the caller's business, not a fault.
			return n, err
		}
		retriable := IsTransient(err) || errors.Is(err, io.ErrUnexpectedEOF)
		if !retriable || attempt+1 >= pol.MaxAttempts {
			return n, err
		}
		if pol.OnRetry != nil {
			pol.OnRetry(err)
		}
		obs.Eventf(ctx, "retry attempt=%d off=%d err=%v", attempt+1, off, err)
		if cerr := ctx.Err(); cerr != nil {
			return n, Permanent(cerr)
		}
		if backoff > 0 {
			pol.Sleep(backoff)
			backoff *= 2
		}
	}
}

// --- fault injection --------------------------------------------------------

// FaultPlan configures a deterministic fault injector. All probabilities
// are per ReadAt call in [0,1]; faults are drawn from a seeded PRNG, so a
// given (plan, call sequence) always produces the same faults.
type FaultPlan struct {
	// Seed drives the PRNG.
	Seed int64
	// BitFlipProb flips one random bit of the returned buffer (data
	// corruption the caller's checksums must catch).
	BitFlipProb float64
	// TransientProb fails the call with a Transient error (next attempt may
	// succeed).
	TransientProb float64
	// ShortReadProb returns fewer bytes than asked with io.ErrUnexpectedEOF
	// (a torn read).
	ShortReadProb float64
	// TruncateAt, when > 0, makes every byte at or past this offset
	// unreadable, as if the object were truncated (io.ErrUnexpectedEOF /
	// io.EOF at the boundary).
	TruncateAt int64
	// Latency is added to every call (sleeps; keep small in tests).
	Latency time.Duration
	// MaxFaults, when > 0, bounds the total number of injected faults (bit
	// flips, transients, short reads); past it the reader behaves cleanly.
	// This is how "a few transient blips then recovery" is modeled.
	MaxFaults int
}

// ErrInjectedTransient is the error injected for transient faults, wrapped
// with ClassTransient.
var ErrInjectedTransient = errors.New("faultio: injected transient fault")

// FaultReaderAt injects deterministic faults into an io.ReaderAt according
// to a FaultPlan. Safe for concurrent use; the PRNG is mutex-guarded, so
// concurrent call interleavings change which call gets which fault but not
// the fault sequence itself.
type FaultReaderAt struct {
	R    io.ReaderAt
	Plan FaultPlan

	mu     sync.Mutex
	rng    *rand.Rand
	faults int
	reads  int64
}

// NewFaultReaderAt wraps r with the plan's deterministic faults.
func NewFaultReaderAt(r io.ReaderAt, plan FaultPlan) *FaultReaderAt {
	return &FaultReaderAt{R: r, Plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Faults returns how many faults have been injected so far.
func (f *FaultReaderAt) Faults() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// Reads returns how many ReadAt calls have been observed.
func (f *FaultReaderAt) Reads() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
}

// fault is one drawn fault decision.
type fault struct {
	transient bool
	short     bool
	flipByte  int // -1: none
	flipBit   uint
}

// draw rolls the plan's dice under the mutex; the expensive work (the
// wrapped read, sleeping) happens outside it.
func (f *FaultReaderAt) draw(n int) fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads++
	d := fault{flipByte: -1}
	if f.Plan.MaxFaults > 0 && f.faults >= f.Plan.MaxFaults {
		return d
	}
	switch {
	case f.rng.Float64() < f.Plan.TransientProb:
		d.transient = true
	case f.rng.Float64() < f.Plan.ShortReadProb:
		d.short = true
	case n > 0 && f.rng.Float64() < f.Plan.BitFlipProb:
		d.flipByte = f.rng.Intn(n)
		d.flipBit = uint(f.rng.Intn(8))
	default:
		return d
	}
	f.faults++
	return d
}

func (f *FaultReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if f.Plan.Latency > 0 {
		time.Sleep(f.Plan.Latency)
	}
	if t := f.Plan.TruncateAt; t > 0 {
		if off >= t {
			return 0, io.EOF
		}
		if off+int64(len(p)) > t {
			n, _ := f.R.ReadAt(p[:t-off], off)
			return n, io.ErrUnexpectedEOF
		}
	}
	d := f.draw(len(p))
	if d.transient {
		return 0, Transient(ErrInjectedTransient)
	}
	if d.short && len(p) > 1 {
		n, err := f.R.ReadAt(p[:len(p)/2], off)
		if err != nil {
			return n, err
		}
		return n, io.ErrUnexpectedEOF
	}
	n, err := f.R.ReadAt(p, off)
	if err == nil && d.flipByte >= 0 && d.flipByte < n {
		p[d.flipByte] ^= 1 << d.flipBit
	}
	return n, err
}
