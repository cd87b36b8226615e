package repro

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/synth"
)

func TestCodecsVocabulary(t *testing.T) {
	want := []string{"flate", "sz2", "sz3", "zfp"}
	if got := Codecs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Codecs() = %v, want %v", got, want)
	}
	if c, err := ParseCodec(""); err != nil || c != SZ3 {
		t.Fatalf(`ParseCodec("") = %q, %v; want default sz3`, c, err)
	}
	if c, err := ParseCodec("ZFP"); err != nil || c != ZFP {
		t.Fatalf(`ParseCodec("ZFP") = %q, %v; want canonical zfp`, c, err)
	}
	if _, err := ParseCodec("lzma"); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("ParseCodec(lzma) = %v, want error enumerating the registry", err)
	}
}

func TestParseLevelCodecs(t *testing.T) {
	m, err := ParseLevelCodecs(" 0:sz3, 2:FLATE ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, map[int]Compressor{0: SZ3, 2: Flate}) {
		t.Fatalf("parsed %v", m)
	}
	if m, err := ParseLevelCodecs(""); err != nil || m != nil {
		t.Fatalf("empty spec: %v, %v", m, err)
	}
	for _, bad := range []string{"flate", "x:flate", "-1:flate", "0:lzma", "0:sz3,0:zfp"} {
		if _, err := ParseLevelCodecs(bad); err == nil {
			t.Errorf("spec %q: expected error", bad)
		}
	}
}

// TestLevelCodecsWorkflow runs the public pipeline with a mixed per-level
// codec configuration end to end: compress (streaming and in-memory paths
// must agree), decompress, and random access through a ContainerReader —
// with the lossless coarse level byte-exact against a flate-only run.
func TestLevelCodecsWorkflow(t *testing.T) {
	f := synth.Generate(synth.Nyx, 32, 11)
	opt := Options{RelEB: 1e-3, LevelCodecs: map[int]Compressor{1: Flate}}

	res, err := CompressUniform(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := CompressTo(f, opt, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), res.Blob) {
		t.Fatal("streaming and in-memory mixed-codec containers differ")
	}

	r, err := OpenContainer(bytes.NewReader(res.Blob), int64(len(res.Blob)))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumLevels() != len(res.Hierarchy.Levels) {
		t.Fatalf("reader sees %d levels, hierarchy has %d", r.NumLevels(), len(res.Hierarchy.Levels))
	}
	for li := range res.Hierarchy.Levels {
		got, err := r.ReadLevel(li)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(res.Hierarchy.Levels[li].Data) {
			t.Fatalf("level %d: reader differs from Decompress", li)
		}
	}

	// The flate level carries the pre-compression data exactly: a run with
	// every level lossless must agree with the mixed run on that level.
	lossless, err := CompressUniform(f, Options{RelEB: 1e-3, Compressor: Flate})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hierarchy.Levels[1].Data.Equal(lossless.Hierarchy.Levels[1].Data) {
		t.Fatal("mixed run's flate level is not bit-exact")
	}
}
