package reader

// The corruption sweep: flip bits across whole containers — committed
// golden fixtures and freshly written checksummed ones — and assert the
// resilience contract at every offset. The contract has two tiers:
//
//   - Any container, any damage: no decode path may panic. Errors are
//     fine; crashes are not.
//   - A checksummed (v2-footer) container: every read either fails with an
//     error or returns exactly the pristine data. Silent corruption is the
//     one forbidden outcome.
//
// Most committed fixtures carry v1 footers (no checksums), so the sweep
// holds every fixture to the no-panic tier only; they are kept in it
// because their wire layouts (v3 linear, stack and Morton 1D, v4
// mixed-codec, legacy v2 body) are the formats a scrub meets in the wild.

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/raceflag"
)

// sweepOffsets samples byte offsets of an n-byte container: the structural
// boundaries (header magic/version, footer trailer, trailer CRC) plus a
// stride-spaced pass over the interior.
func sweepOffsets(n, stride int) []int {
	offs := []int{0, 1, 4, 5, n - 1, n - 8, n - 16, n - 17}
	for o := stride / 2; o < n; o += stride {
		offs = append(offs, o)
	}
	seen := make(map[int]bool, len(offs))
	out := offs[:0]
	for _, o := range offs {
		if o >= 0 && o < n && !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

// TestCorruptionSweepGoldenFixtures flips bits across every committed
// golden fixture and runs both decode paths over the damage. The only
// assertion is survival: a panic anywhere fails the test. (The fixtures
// predate per-stream checksums, so a flip may legally decode to different
// data — the wire offers no way to notice.)
func TestCorruptionSweepGoldenFixtures(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("..", "core", "testdata", "golden-*"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no golden fixtures found: %v", err)
	}
	for _, path := range fixtures {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			for _, off := range sweepOffsets(len(blob), 127) {
				for _, bit := range []byte{0x01, 0x80} {
					bad := append([]byte(nil), blob...)
					bad[off] ^= bit
					// Sequential decode: error or success, never a crash.
					core.Decompress(bad)
					// Random access: same contract on open and every level.
					r, err := Open(bytes.NewReader(bad), int64(len(bad)))
					if err != nil {
						continue
					}
					if r.NumLevels() > 16 {
						t.Fatalf("offset %d bit %#x: corrupt container parsed to %d levels", off, bit, r.NumLevels())
					}
					for l := 0; l < r.NumLevels(); l++ {
						r.ReadLevel(l)
					}
				}
			}
		})
	}
}

// TestCorruptionSweepVerifiedContainer asserts the full integrity contract
// on a checksummed container, for both decoders: whatever byte is damaged,
// core.Decompress and every reader read either fail or return data identical
// to the pristine decode. Footer damage is caught by the trailer CRC (falling
// back to a body scan of intact bytes), payload damage by the per-stream
// CRCs, and header damage is never seen at all — under an intact footer no
// decoder consults the un-checksummed body header. Every bit of every byte
// ahead of the first stream is flipped (the header, level 0's block list and
// — on TAC — its first box geometry), plus a stride-spaced pass over the rest.
func TestCorruptionSweepVerifiedContainer(t *testing.T) {
	h := testHierarchy(t, 32, 9)
	eb := h.Levels[0].Data.ValueRange() * 1e-3
	for name, blob := range map[string][]byte{
		"tac":    compress(t, h, core.Options{EB: eb, Arrangement: core.ArrangeTAC}),
		"linear": compress(t, h, core.Options{EB: eb, Arrangement: core.ArrangeLinear}),
	} {
		t.Run(name, func(t *testing.T) {
			clean := mustOpen(t, blob)
			pristine := make([]*field.Field, clean.NumLevels())
			for l := range pristine {
				f, err := clean.ReadLevel(l)
				if err != nil {
					t.Fatal(err)
				}
				pristine[l] = f
			}
			want, err := core.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			check := func(off int, bit byte) {
				bad := append([]byte(nil), blob...)
				bad[off] ^= bit
				if g, err := core.Decompress(bad); err == nil {
					if len(g.Levels) != len(want.Levels) {
						t.Fatalf("offset %d bit %#x: Decompress returned %d levels, want %d",
							off, bit, len(g.Levels), len(want.Levels))
					}
					for l, lv := range g.Levels {
						if !lv.Data.Equal(want.Levels[l].Data) || !slices.Equal(lv.Owned, want.Levels[l].Owned) {
							t.Fatalf("offset %d bit %#x: Decompress level %d silently corrupted", off, bit, l)
						}
					}
				}
				r, err := Open(bytes.NewReader(bad), int64(len(bad)))
				if err != nil {
					return // typed failure at open: acceptable
				}
				if r.NumLevels() != len(pristine) {
					// A parseable-but-different shape must come from footer
					// damage the trailer CRC failed to catch — that would be
					// a real wire hole, not an acceptable outcome.
					t.Fatalf("offset %d bit %#x: corrupt container parsed to %d levels, want %d",
						off, bit, r.NumLevels(), len(pristine))
				}
				for l := 0; l < r.NumLevels(); l++ {
					f, err := r.ReadLevel(l)
					if err != nil {
						continue // typed error: acceptable
					}
					if !f.Equal(pristine[l]) {
						t.Fatalf("offset %d bit %#x: level %d read back silently corrupted", off, bit, l)
					}
				}
			}
			// Under the race detector (a CI step repeats this package twenty
			// times there) one bit per byte; every bit otherwise.
			bits := []byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80}
			if raceflag.Enabled {
				bits = bits[2:3]
			}
			for off := 0; off < int(clean.Index().Streams[0].Offset); off++ {
				for _, bit := range bits {
					check(off, bit)
				}
			}
			for _, off := range sweepOffsets(len(blob), 61) {
				check(off, 0x04)
			}
		})
	}
}
