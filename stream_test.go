package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/synth"
)

// TestCompressToMatchesResultBlob locks the public streaming API to the
// in-memory path: same options, same bytes.
func TestCompressToMatchesResultBlob(t *testing.T) {
	f := synth.Generate(synth.Nyx, 32, 42)
	opt := Options{RelEB: 1e-3}
	res, err := CompressUniform(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	wr, err := CompressTo(f, opt, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), res.Blob) {
		t.Fatalf("CompressTo wrote %d bytes differing from Result.Blob (%d bytes)", buf.Len(), len(res.Blob))
	}
	if wr.Bytes != int64(len(res.Blob)) || wr.CompressionRatio != res.CompressionRatio {
		t.Fatalf("WriteResult %+v inconsistent with Result (CR %v, %d bytes)",
			wr, res.CompressionRatio, len(res.Blob))
	}
}

// TestCompressToFileServesRandomAccess writes a container atomically and
// reads a level back through the random-access reader.
func TestCompressToFileServesRandomAccess(t *testing.T) {
	f := synth.Generate(synth.Nyx, 32, 42)
	path := filepath.Join(t.TempDir(), "nyx.mrw")
	wr, err := CompressToFile(f, Options{RelEB: 1e-3}, path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != wr.Bytes {
		t.Fatalf("file is %d bytes, WriteResult says %d", st.Size(), wr.Bytes)
	}
	r, err := OpenContainerURL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.FellBack() {
		t.Fatal("streamed container opened via the fallback scan (missing footer?)")
	}
	coarse, err := r.ReadLevel(r.NumLevels() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Len() == 0 {
		t.Fatal("empty coarsest level")
	}
}
