package codec

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/synth"
)

// TestRegistryBuiltins pins the codec table's vocabulary and the wire-ID
// assignments, which are burned into every container ever written.
func TestRegistryBuiltins(t *testing.T) {
	wantNames := []string{"flate", "sz2", "sz3", "zfp"}
	names := Names()
	if len(names) != len(wantNames) {
		t.Fatalf("Names() = %v, want %v", names, wantNames)
	}
	for i, n := range wantNames {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, wantNames)
		}
	}
	wantIDs := map[string]byte{"sz3": SZ3ID, "sz2": SZ2ID, "zfp": ZFPID, "flate": FlateID}
	for name, id := range wantIDs {
		c, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) missing", name)
		}
		if c.WireID() != id {
			t.Fatalf("%s wire ID = %d, want %d", name, c.WireID(), id)
		}
		c2, ok := ByID(id)
		if !ok || c2.Name() != name {
			t.Fatalf("ByID(%d) = %v, want %s", id, c2, name)
		}
	}
	if _, ok := ByID(200); ok {
		t.Fatal("ByID(200) resolved an unregistered codec")
	}
	if _, ok := ByName("zstd"); ok {
		t.Fatal(`ByName("zstd") resolved an unregistered codec`)
	}
	// Lookup is case-insensitive (flag and query-parameter ergonomics).
	if _, ok := ByName("SZ3"); !ok {
		t.Fatal(`ByName("SZ3") should resolve case-insensitively`)
	}
}

// TestRoundTripAllCodecs drives every registered codec over a small Nyx
// field at its default options: lossy codecs must respect the error bound,
// lossless ones must reproduce the input bit-for-bit, and compression must
// be deterministic (the container pipeline's byte-identity guarantees
// depend on it).
func TestRoundTripAllCodecs(t *testing.T) {
	f := synth.Generate(synth.Nyx, 16, 3)
	eb := f.ValueRange() * 1e-3
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			p := Params{EB: eb}
			blob, err := c.Compress(f, p)
			if err != nil {
				t.Fatal(err)
			}
			again, err := c.Compress(f, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, again) {
				t.Fatal("compression is not deterministic")
			}
			g, err := c.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !g.SameShape(f) {
				t.Fatalf("decoded shape %v, want %v", g, f)
			}
			if c.Lossless() {
				if !g.Equal(f) {
					t.Fatal("lossless codec did not round-trip bit-exactly")
				}
				return
			}
			if d := f.MaxAbsDiff(g); d > eb {
				t.Fatalf("max error %g exceeds bound %g", d, eb)
			}
		})
	}
}

// TestFlateBitExact exercises the lossless passthrough on the bit patterns
// an error-bounded codec would destroy or normalize: NaN payloads,
// infinities, negative zero, and denormals — the reason mask/ID fields get
// this codec.
func TestFlateBitExact(t *testing.T) {
	c, ok := ByName("flate")
	if !ok {
		t.Fatal("flate codec not registered")
	}
	f := field.New(4, 4, 4)
	for i := range f.Data {
		f.Data[i] = float64(i) * 1e17 // large IDs, exactly representable
	}
	f.Data[0] = math.NaN()
	f.Data[1] = math.Float64frombits(0x7FF8_0000_0000_0001) // NaN with payload
	f.Data[2] = math.Inf(1)
	f.Data[3] = math.Inf(-1)
	f.Data[4] = math.Copysign(0, -1)
	f.Data[5] = math.SmallestNonzeroFloat64
	blob, err := c.Compress(f, Params{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !g.SameShape(f) {
		t.Fatalf("decoded shape %v, want %v", g, f)
	}
	for i := range f.Data {
		if math.Float64bits(f.Data[i]) != math.Float64bits(g.Data[i]) {
			t.Fatalf("sample %d: bits %x -> %x", i, math.Float64bits(f.Data[i]), math.Float64bits(g.Data[i]))
		}
	}
}

// TestFlateRejectsCorruptHeaders locks the decoder's failure modes: wrong
// magic, wrong version, truncation, and a header whose declared dimensions
// exceed what the compressed size could possibly inflate to.
func TestFlateRejectsCorruptHeaders(t *testing.T) {
	c, _ := ByName("flate")
	f := synth.Generate(synth.Nyx, 8, 1)
	blob, err := c.Compress(f, Params{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         nil,
		"short":         blob[:3],
		"bad magic":     append([]byte("XXXX"), blob[4:]...),
		"bad version":   append(append([]byte{}, blob[:4]...), append([]byte{99}, blob[5:]...)...),
		"truncated":     blob[:len(blob)/2],
		"garbage body":  append(append([]byte{}, blob[:5]...), 1, 2, 3, 4),
		"sz3 under raw": {'R', 'A', 'W', 'F', 1, 0},
	}
	for name, b := range cases {
		if _, err := c.Decompress(b); err == nil {
			t.Errorf("%s: decode succeeded on corrupt input", name)
		}
	}
}

// TestLossyPostHooksAgree pins the backend hook values the pipeline's
// post-processing stage depends on (§III-B).
func TestLossyPostHooksAgree(t *testing.T) {
	p := Params{SZ2BlockSize: 6}
	for _, tc := range []struct {
		name     string
		unit     int
		wantBS   int
		wantCand bool
	}{
		{"sz3", 16, 16, true},
		{"sz2", 16, 6, true},
		{"zfp", 16, 4, true},
		{"flate", 16, 0, false},
	} {
		c, ok := ByName(tc.name)
		if !ok {
			t.Fatalf("%s not registered", tc.name)
		}
		if bs := c.PostBlockSize(p, tc.unit); bs != tc.wantBS {
			t.Errorf("%s: PostBlockSize = %d, want %d", tc.name, bs, tc.wantBS)
		}
		if got := len(c.PostCandidates()) > 0; got != tc.wantCand {
			t.Errorf("%s: candidates present = %v, want %v", tc.name, got, tc.wantCand)
		}
	}
}
