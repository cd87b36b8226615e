package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/synth"
)

// codecTestServer builds an empty serving directory.
func codecTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	s, err := New(Config{Dir: t.TempDir(), CacheBytes: 64 << 20, MaxIngestBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts, s
}

// metaLevels fetches /meta and returns the container codec plus the
// per-level codec names.
func metaLevels(t *testing.T, url, id string) (string, []string) {
	t.Helper()
	code, body, _ := get(t, url+"/v1/field/"+id+"/meta")
	if code != http.StatusOK {
		t.Fatalf("meta: %d %s", code, body)
	}
	var meta struct {
		Compressor string `json:"compressor"`
		Levels     []struct {
			Codec string `json:"codec"`
		} `json:"levels"`
	}
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	codecs := make([]string, len(meta.Levels))
	for i, l := range meta.Levels {
		codecs[i] = l.Codec
	}
	return meta.Compressor, codecs
}

// TestIngestUnknownCodec400 locks the registry-driven validation: an
// unknown codec name — under either parameter spelling, or inside a
// levelcodecs spec — fails with a 400 whose body enumerates every
// registered codec, so the client learns the vocabulary from the error.
func TestIngestUnknownCodec400(t *testing.T) {
	ts, _ := codecTestServer(t)
	f := synth.Generate(synth.Nyx, 16, 5)
	for _, q := range []string{"codec=lzma", "compressor=lzma", "levelcodecs=0:lzma"} {
		code, body := doPut(t, ts.URL+"/v1/field/x?"+q, rawFieldBody(t, f))
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, code)
		}
		for _, name := range repro.Codecs() {
			if !strings.Contains(string(body), name) {
				t.Fatalf("%s: 400 body does not enumerate %q: %s", q, name, body)
			}
		}
	}
	// Malformed level specs are rejected too.
	for _, q := range []string{"levelcodecs=flate", "levelcodecs=-1:flate", "levelcodecs=0:flate,0:sz3"} {
		if code, body := doPut(t, ts.URL+"/v1/field/x?"+q, rawFieldBody(t, f)); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", q, code, body)
		}
	}
}

// ingestExpectedLevels runs the ingest pipeline locally with the given
// options and returns the per-level reconstructions the server should
// serve.
func ingestExpectedLevels(t *testing.T, f *field.Field, opt repro.Options) []*field.Field {
	t.Helper()
	res, err := repro.CompressUniform(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.Decompress(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*field.Field, len(h.Levels))
	for li := range h.Levels {
		out[li] = h.Levels[li].Data
	}
	return out
}

// TestIngestFlateCodec uploads a field under the lossless codec and checks
// the served container: meta reports FLATE everywhere and every level
// reads back exactly as the local pipeline produces it.
func TestIngestFlateCodec(t *testing.T) {
	ts, _ := codecTestServer(t)
	f := synth.Generate(synth.Nyx, 32, 6)
	if code, body := doPut(t, ts.URL+"/v1/field/mask?codec=flate", rawFieldBody(t, f)); code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", code, body)
	}
	comp, codecs := metaLevels(t, ts.URL, "mask")
	if comp != "FLATE" {
		t.Fatalf("meta compressor = %q, want FLATE", comp)
	}
	want := ingestExpectedLevels(t, f, repro.Options{RelEB: 1e-3, Compressor: repro.Flate})
	for li, lc := range codecs {
		if lc != "FLATE" {
			t.Fatalf("level %d codec = %q, want FLATE", li, lc)
		}
		code, body, _ := get(t, fmt.Sprintf("%s/v1/field/mask/level/%d", ts.URL, li))
		if code != http.StatusOK {
			t.Fatalf("level %d: %d", li, code)
		}
		if got := parseRawField(t, body); !got.Equal(want[li]) {
			t.Fatalf("level %d served data differs from local pipeline", li)
		}
	}
}

// TestNonFiniteFieldJSON406 serves a lossless container holding a NaN.
// JSON has no NaN, so ?format=json must answer 406 pointing at the binary
// format, with no ETag and no public Cache-Control — not a 200 with an empty
// body that a cache would keep. The binary response stays 200 and bit-exact.
func TestNonFiniteFieldJSON406(t *testing.T) {
	ts, _ := codecTestServer(t)
	f := synth.Generate(synth.Nyx, 32, 6)
	f.Data[0] = math.NaN()
	if code, body := doPut(t, ts.URL+"/v1/field/nan?codec=flate", rawFieldBody(t, f)); code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", code, body)
	}
	want := ingestExpectedLevels(t, f, repro.Options{RelEB: 1e-3, Compressor: repro.Flate})
	for li, wl := range want {
		url := fmt.Sprintf("%s/v1/field/nan/level/%d", ts.URL, li)
		code, body, _ := get(t, url)
		if code != http.StatusOK {
			t.Fatalf("level %d binary: %d", li, code)
		}
		got := parseRawField(t, body)
		if !got.SameShape(wl) {
			t.Fatalf("level %d binary: shape differs", li)
		}
		hasNaN := false
		for i, v := range wl.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("level %d binary: sample %d is %x, want %x", li, i, math.Float64bits(got.Data[i]), math.Float64bits(v))
			}
			hasNaN = hasNaN || math.IsNaN(v)
		}
		if !hasNaN {
			continue
		}
		for _, u := range []string{url + "?format=json", fmt.Sprintf("%s/v1/field/nan/slice?axis=z&k=0&level=%d&format=json", ts.URL, li)} {
			code, body, h := get(t, u)
			if code != http.StatusNotAcceptable {
				t.Fatalf("%s: status %d (%d body bytes), want 406", u, code, len(body))
			}
			if !strings.Contains(string(body), "binary") {
				t.Fatalf("%s: 406 body does not name the binary format: %s", u, body)
			}
			if h.Get("ETag") != "" || strings.Contains(h.Get("Cache-Control"), "public") {
				t.Fatalf("%s: 406 carries cache validators: ETag %q, Cache-Control %q", u, h.Get("ETag"), h.Get("Cache-Control"))
			}
		}
		return
	}
	t.Fatal("no served level holds the NaN")
}

// TestIngestMixedLevelCodecs uploads with a per-level override — fine
// level error-bounded, coarse level lossless — and checks the mixed (v4)
// container serves both levels correctly with per-level codecs visible in
// meta.
func TestIngestMixedLevelCodecs(t *testing.T) {
	ts, _ := codecTestServer(t)
	f := synth.Generate(synth.Nyx, 32, 7)
	if code, body := doPut(t, ts.URL+"/v1/field/mix?levelcodecs=1:flate", rawFieldBody(t, f)); code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", code, body)
	}
	comp, codecs := metaLevels(t, ts.URL, "mix")
	if comp != "SZ3" {
		t.Fatalf("meta compressor = %q, want SZ3", comp)
	}
	if len(codecs) != 2 || codecs[0] != "SZ3" || codecs[1] != "FLATE" {
		t.Fatalf("level codecs = %v, want [SZ3 FLATE]", codecs)
	}
	want := ingestExpectedLevels(t, f, repro.Options{
		RelEB:       1e-3,
		LevelCodecs: map[int]repro.Compressor{1: repro.Flate},
	})
	for li := range want {
		code, body, _ := get(t, fmt.Sprintf("%s/v1/field/mix/level/%d", ts.URL, li))
		if code != http.StatusOK {
			t.Fatalf("level %d: %d", li, code)
		}
		if got := parseRawField(t, body); !got.Equal(want[li]) {
			t.Fatalf("level %d served data differs from local pipeline", li)
		}
	}
}

// TestIngestRejectsUnknownParams pins that a query key outside the accepted
// set — a typo, or the removed ?lanes= — fails the ingest with a 400 naming
// the key and the accepted vocabulary, instead of compressing at the
// defaults and answering 201; every accepted key still ingests.
func TestIngestRejectsUnknownParams(t *testing.T) {
	ts, _ := codecTestServer(t)
	f := synth.Generate(synth.Nyx, 32, 6)
	for _, q := range []string{"relebb=1e-5", "lanes=4", "releb=1e-3&Codec=sz3"} {
		code, body := doPut(t, ts.URL+"/v1/field/bad?"+q, rawFieldBody(t, f))
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", q, code, body)
		}
		key, _, _ := strings.Cut(q[strings.LastIndex(q, "&")+1:], "=")
		if !strings.Contains(string(body), key) || !strings.Contains(string(body), "roifrac") {
			t.Fatalf("%s: 400 body names neither the key nor the accepted set: %s", q, body)
		}
	}
	if code, _, _ := get(t, ts.URL+"/v1/field/bad/meta"); code != http.StatusNotFound {
		t.Fatalf("rejected ingest left a field behind: meta status %d", code)
	}
	all := "releb=1e-2&eb=0.5&codec=sz2&compressor=sz3&levelcodecs=1:flate&roiblock=8&roifrac=0.25"
	if code, body := doPut(t, ts.URL+"/v1/field/ok?"+all, rawFieldBody(t, f)); code != http.StatusCreated {
		t.Fatalf("%s: status %d (%s), want 201", all, code, body)
	}
}
