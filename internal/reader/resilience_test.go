package reader

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faultio"
	"repro/internal/index"
)

// withRetryPolicy overrides the bounded retry-with-backoff applied to every
// source read (default faultio.DefaultRetryPolicy), so a test can size the
// budget to its fault plan.
func withRetryPolicy(p faultio.RetryPolicy) Option {
	return func(r *Reader) { r.retryPolicy = p }
}

// corruptStreamByte returns a copy of blob with one payload byte of the
// given stream flipped, plus the stream's level and box.
func corruptStreamByte(t *testing.T, blob []byte, si int) ([]byte, index.Stream) {
	t.Helper()
	ix, err := index.ReadFrom(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if si >= len(ix.Streams) {
		t.Fatalf("stream %d out of range (%d streams)", si, len(ix.Streams))
	}
	s := ix.Streams[si]
	bad := append([]byte(nil), blob...)
	bad[s.Offset+s.Len/2] ^= 0x10
	return bad, s
}

// TestReadRejectsCorruptPayload is the wire half of the tentpole: a single
// flipped bit in a compressed stream body must surface as a typed Corrupt
// error from every read method — never as decoded garbage — because the
// footer's per-stream CRC is checked before the codec runs.
func TestReadRejectsCorruptPayload(t *testing.T) {
	h := testHierarchy(t, 32, 5)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	for name, opt := range testOptions(eb) {
		blob := compress(t, h, opt)
		bad, s := corruptStreamByte(t, blob, 0)
		r := mustOpen(t, bad)
		if !r.Index().StreamCRCs {
			t.Fatalf("%s: freshly written container reports verification unavailable", name)
		}
		_, err := r.ReadLevel(s.Level)
		if err == nil {
			t.Fatalf("%s: corrupt payload read back without error", name)
		}
		if !faultio.IsCorrupt(err) {
			t.Fatalf("%s: corruption error not classified Corrupt: %v", name, err)
		}
		if st := r.Stats(); st.CorruptStreams == 0 {
			t.Fatalf("%s: corrupt stream not counted", name)
		}
	}
}

// TestRetryAbsorbsTransientFaults exercises the serving path's fault
// tolerance end to end: a source that injects transient errors (and
// nothing else) must cost retries, not failures.
func TestRetryAbsorbsTransientFaults(t *testing.T) {
	h := testHierarchy(t, 32, 5)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	blob := compress(t, h, core.Options{EB: eb, Arrangement: core.ArrangeTAC})
	var inj *faultio.FaultReaderAt
	r := mustOpen(t, blob,
		WithSourceWrap(func(src io.ReaderAt) io.ReaderAt {
			inj = faultio.NewFaultReaderAt(src, faultio.FaultPlan{Seed: 11, TransientProb: 0.4, MaxFaults: 16})
			return inj
		}),
		withRetryPolicy(faultio.RetryPolicy{MaxAttempts: 6}),
	)
	want, err := core.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < r.NumLevels(); l++ {
		got, err := r.ReadLevel(l)
		if err != nil {
			t.Fatalf("ReadLevel(%d) under transient faults: %v", l, err)
		}
		if !got.Equal(want.Levels[l].Data) {
			t.Fatalf("level %d corrupted by transient faults", l)
		}
	}
	if inj.Faults() == 0 {
		t.Fatal("injector faulted nothing; test proves nothing")
	}
	if st := r.Stats(); st.Retries == 0 {
		t.Fatal("no retries counted despite injected transients")
	}
}

// TestReadHonorsContext: a canceled context stops brick fetches.
func TestReadHonorsContext(t *testing.T) {
	h := testHierarchy(t, 32, 5)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	blob := compress(t, h, core.Options{EB: eb, Arrangement: core.ArrangeTAC})
	r := mustOpen(t, blob)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.ReadLevelCtx(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadLevelCtx on canceled context: %v", err)
	}
	if _, _, err := r.ReadBox(ctx, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadBox on canceled context: %v", err)
	}
	if _, err := r.ReadSliceCtx(ctx, AxisZ, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadSliceCtx on canceled context: %v", err)
	}
	if st := r.Stats(); st.BackendDecodes != 0 {
		t.Fatalf("%d streams decoded under a canceled context", st.BackendDecodes)
	}
}

// TestVerifyScrub runs the scrub over a clean container, a corrupted one,
// and a container whose footer predates checksums (decode-verified).
func TestVerifyScrub(t *testing.T) {
	h := testHierarchy(t, 32, 5)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	blob := compress(t, h, core.Options{EB: eb, Arrangement: core.ArrangeTAC})

	clean := mustOpen(t, blob)
	res, err := clean.Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Checked != res.Streams || res.Streams == 0 {
		t.Fatalf("clean scrub: %+v", res)
	}

	bad, s := corruptStreamByte(t, blob, 1)
	res, err = mustOpen(t, bad).Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) != 1 {
		t.Fatalf("corrupt scrub found %d faults, want 1: %v", len(res.Faults), res.Faults)
	}
	f := res.Faults[0]
	if f.Level != s.Level || f.Box != s.Box || !faultio.IsCorrupt(f.Err) {
		t.Fatalf("fault misattributed: %v (stream L%dB%d)", f, s.Level, s.Box)
	}

	// Rewrite the footer without checksums: the scrub must fall back to
	// decode-verification and still pass on clean bytes.
	body, ok := index.Locate(blob)
	if !ok {
		t.Fatal("no footer")
	}
	ix, err := index.ReadFrom(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	ix.StreamCRCs = false
	old := ix.AppendFooter(append([]byte(nil), blob[:body]...))
	r := mustOpen(t, old)
	if r.Index().StreamCRCs {
		t.Fatal("checksum-free footer reports verification available")
	}
	res, err = r.Verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Decoded != res.Streams || res.Checked != 0 {
		t.Fatalf("decode-verified scrub: %+v", res)
	}
}

// TestVerifyDecodesFooterlessGolden: a container indexed by a body scan has
// no checksum to check against, since the scan computes each stream's CRC
// from the bytes it read, so the scrub decodes every stream and reports
// none as checksum-verified — for the footerless v2 golden, and for the v3
// golden with its footer cut off.
func TestVerifyDecodesFooterlessGolden(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden-tac-sz3.mrc"))
	if err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden-tac-sz3-v3.mrw"))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := index.Locate(v3)
	if !ok {
		t.Fatal("v3 golden has no footer")
	}
	for name, blob := range map[string][]byte{"v2": v2, "v3 without footer": v3[:body]} {
		r := mustOpen(t, blob)
		if !r.FellBack() {
			t.Fatalf("%s: indexed without a body scan", name)
		}
		res, err := r.Verify(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() || res.Streams == 0 || res.Checked != 0 || res.Decoded != res.Streams {
			t.Fatalf("%s: scrub %+v, want every stream decode-verified", name, res)
		}
	}
}
