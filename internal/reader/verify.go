package reader

// The scrub path: walk every stream of an open container and prove its
// payload intact, without decoding more than necessary and without
// touching the brick cache. This is what `mrcompress -verify` and
// repro.Verify run — the periodic integrity pass a serving fleet schedules
// against shared storage to find bit rot before a request does.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/faultio"
	"repro/internal/obs"
)

// StreamFault records one stream that failed the scrub.
type StreamFault struct {
	// Level and Box identify the stream (Box -1 for merged levels).
	Level, Box int
	// Offset and Len locate the compressed payload in the container.
	Offset, Len int64
	// Err is the typed failure (faultio.Classify tells corrupt from
	// transient-exhausted from permanent).
	Err error
}

func (f StreamFault) String() string {
	return fmt.Sprintf("stream L%dB%d [%d,+%d): %v", f.Level, f.Box, f.Offset, f.Len, f.Err)
}

// VerifyResult summarizes a container scrub.
type VerifyResult struct {
	// Streams is the number of streams examined.
	Streams int
	// Checked counts streams verified against a footer checksum.
	Checked int
	// Decoded counts streams verified by a full decode because no footer
	// checksum covers them: a version-1 footer carries none, and a reader
	// that fell back to a body scan computed its checksums from the very
	// bytes they would check.
	Decoded int
	// Faults lists the streams that failed, in container order.
	Faults []StreamFault
}

// OK reports whether every stream passed.
func (v *VerifyResult) OK() bool { return len(v.Faults) == 0 }

// Verify scrubs the container: every stream's payload is read and checked
// against its index checksum when an intact footer carries one, or fully
// decoded otherwise (the only integrity evidence available for
// pre-checksum footers and for containers indexed by a body scan).
// Per-stream failures are collected in the result, not returned as an
// error — a scrub's job is the complete damage report; the returned error
// is reserved for context cancellation. On a traced context the scrub
// is a "verify" span, and retried reads leave their events on it.
func (r *Reader) Verify(ctx context.Context) (*VerifyResult, error) {
	ctx, sp := obs.StartSpan(ctx, "verify")
	defer sp.End()
	res := &VerifyResult{}
	for si := range r.ix.Streams {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		s := &r.ix.Streams[si]
		res.Streams++
		payload := make([]byte, s.Len)
		_, err := readAtCtx(ctx, r.src, payload, s.Offset)
		switch {
		case err != nil:
			// A read the scrub's own cancellation cut short is not damage.
			if cerr := ctx.Err(); cerr != nil {
				return res, cerr
			}
		case r.ix.StreamCRCs && !r.fellBack:
			r.bytesRead.Add(s.Len)
			res.Checked++
			err = core.VerifyIndexed(r.ix, si, payload)
		default:
			r.bytesRead.Add(s.Len)
			res.Decoded++
			if _, err = core.DecodeIndexed(ctx, r.ix, si, payload, nil); err == nil {
				r.backendDecodes.Add(1)
			}
		}
		if err != nil {
			if faultio.IsCorrupt(err) {
				r.corruptStreams.Add(1)
			}
			res.Faults = append(res.Faults, StreamFault{
				Level: s.Level, Box: s.Box, Offset: s.Offset, Len: s.Len, Err: err,
			})
		}
	}
	return res, nil
}
