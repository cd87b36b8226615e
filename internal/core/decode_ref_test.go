package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultio"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/postproc"
)

// decompressReference is the full decode as it stood before streams were
// placed by the workers that decoded them: the streams decode (and
// post-process) on a parallel.Ordered window and one goroutine places them
// in index order as they arrive. It is kept as the reference the worker
// placement must match bit for bit.
func decompressReference(blob []byte, intens []postproc.Intensity, workers int) (*grid.Hierarchy, error) {
	ix, err := loadIndex(blob)
	if err != nil {
		return nil, err
	}
	h, err := grid.New(ix.Nx, ix.Ny, ix.Nz, ix.BlockB, len(ix.Levels))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	opt := OptionsFromIndex(ix.Opts)
	ctx := context.TODO()
	var dsts spares[*field.Field]
	fields := parallel.NewOrdered(len(ix.Streams), parallel.Resolve(workers), func(si int) (*field.Field, error) {
		s := &ix.Streams[si]
		f, err := DecodeIndexed(ctx, ix, si, blob[s.Offset:s.Offset+s.Len], dsts.get())
		if err != nil || s.Level >= len(intens) || intens[s.Level] == (postproc.Intensity{}) {
			return f, err
		}
		sopt := opt
		sopt.Compressor = Compressor(s.Compressor)
		bs := PostBlockSize(sopt, ix.UnitBlockSize(s.Level))
		if bs <= 0 {
			return f, nil
		}
		po := postproc.Options{EB: opt.EB, BlockSize: bs}
		if !ix.Levels[s.Level].Padded {
			return postproc.Process(f, intens[s.Level], po), nil
		}
		g := postproc.Process(layout.UnpadXY(f), intens[s.Level], po)
		field.CopyBlock(f, 0, 0, 0, g, 0, 0, 0, g.Nx, g.Ny, g.Nz)
		return f, nil
	})
	defer fields.Stop()
	for si := range ix.Streams {
		f, err := fields.Next()
		if err != nil {
			return nil, err
		}
		if err := PlaceIndexed(ix, si, f, h.Levels[ix.Streams[si].Level].Data); err != nil {
			return nil, err
		}
		markOwned(h, ix, si)
		dsts.put(f)
	}
	return h, nil
}

// decodeWorkerCounts are the worker counts the decode is held to: serial,
// fewer workers than most containers have streams, and more.
var decodeWorkerCounts = []int{1, 2, 3, 8}

// referenceContainers returns every committed golden plus two generated
// containers the goldens lack: a padded linear SZ3MR merge and a TAC SZ2
// container of 22 small boxes (more streams than any worker count).
func referenceContainers(t *testing.T) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "golden-*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no golden fixtures: %v", err)
	}
	out := make(map[string][]byte)
	for _, name := range names {
		blob, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = blob
	}
	h, eb := goldenHierarchy(t)
	c, err := CompressHierarchy(h, SZ3MROptions(eb))
	if err != nil {
		t.Fatal(err)
	}
	out["sz3mr-padded"] = c.Blob
	_, _, blob, _ := tacContainer(t, 64, SZ2)
	out["tac-sz2-22-boxes"] = blob
	return out
}

// sameHierarchy reports the first difference between two decoded
// hierarchies: level data compared by Float64bits, and the Owned masks.
func sameHierarchy(got, want *grid.Hierarchy) error {
	if len(got.Levels) != len(want.Levels) {
		return fmt.Errorf("%d levels, want %d", len(got.Levels), len(want.Levels))
	}
	for l := range want.Levels {
		g, w := got.Levels[l], want.Levels[l]
		if len(g.Data.Data) != len(w.Data.Data) {
			return fmt.Errorf("level %d: %d samples, want %d", l, len(g.Data.Data), len(w.Data.Data))
		}
		for i, v := range w.Data.Data {
			if math.Float64bits(g.Data.Data[i]) != math.Float64bits(v) {
				return fmt.Errorf("level %d sample %d: %v, want %v", l, i, g.Data.Data[i], v)
			}
		}
		for b, o := range w.Owned {
			if g.Owned[b] != o {
				return fmt.Errorf("level %d block %d: owned %v, want %v", l, b, g.Owned[b], o)
			}
		}
	}
	return nil
}

// TestDecodeWorkersMatchReference: placing each stream on the worker that
// decoded it gives the reference decode's level data, bit for bit, and its
// Owned masks, for every golden and every arrangement, at every worker
// count, with and without post-processing.
func TestDecodeWorkersMatchReference(t *testing.T) {
	intens := []postproc.Intensity{postproc.Uniform(0.5), {0.25, 0.75, 1}, postproc.Uniform(1)}
	for name, blob := range referenceContainers(t) {
		want, err := decompressReference(blob, nil, 1)
		if err != nil {
			t.Fatalf("%s: reference decode: %v", name, err)
		}
		wantPost, err := decompressReference(blob, intens, 1)
		if err != nil {
			t.Fatalf("%s: reference post-processed decode: %v", name, err)
		}
		for _, w := range decodeWorkerCounts {
			got, err := DecompressWorkers(blob, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if err := sameHierarchy(got, want); err != nil {
				t.Errorf("%s workers=%d: %v", name, w, err)
			}
			got, err = DecompressProcessedWorkers(blob, intens, w)
			if err != nil {
				t.Fatalf("%s workers=%d post-processed: %v", name, w, err)
			}
			if err := sameHierarchy(got, wantPost); err != nil {
				t.Errorf("%s workers=%d post-processed: %v", name, w, err)
			}
		}
	}
}

// slowDecodes is a context whose every lookup sleeps for a millisecond. A
// stream's decode looks up the trace on its context before the codec runs,
// so each decode takes at least that long, while a stream whose checksum
// fails never gets there: a decode running alongside a failed stream
// finishes well after the failure is recorded, and claiming another stream
// then would show.
type slowDecodes struct{ context.Context }

func (c slowDecodes) Value(key any) any {
	time.Sleep(time.Millisecond)
	return c.Context.Value(key)
}

// TestDecodeErrorIsLowestFailingStream: with the payloads of two streams
// k < m damaged, a full decode fails naming stream k at every worker count.
// Every stream below k is decoded; serially nothing above k is, and on w
// workers at most the w-1 streams the other workers held when k failed.
func TestDecodeErrorIsLowestFailingStream(t *testing.T) {
	_, _, blob, n := tacContainer(t, 64, SZ2)
	ix, err := loadIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	// A stream's decode span carries its payload size; the streams are told
	// apart by it.
	byLen := make(map[string]int)
	for si, s := range ix.Streams {
		byLen[fmt.Sprint(s.Len)] = si
	}
	if len(byLen) != n {
		t.Fatalf("%d distinct payload sizes for %d streams", len(byLen), n)
	}
	for _, km := range [][2]int{{0, 1}, {3, n - 1}, {n / 2, n/2 + 2}, {n - 2, n - 1}} {
		k, m := km[0], km[1]
		bad := append([]byte(nil), blob...)
		for _, si := range km {
			bad[ix.Streams[si].Offset] ^= 0x40
		}
		ks := ix.Streams[k]
		wantMsg := fmt.Sprintf("level %d box %d:", ks.Level, ks.Box)
		for _, w := range decodeWorkerCounts {
			col := obs.NewCollector(1)
			ctx, tr := col.StartTrace(context.Background(), "decode")
			_, err := decompressImpl(slowDecodes{ctx}, bad, nil, w)
			col.Finish(tr)
			if err == nil || !strings.Contains(err.Error(), wantMsg) {
				t.Fatalf("k=%d m=%d workers=%d: error %v, want one naming %q", k, m, w, err, wantMsg)
			}
			if !faultio.IsCorrupt(err) {
				t.Errorf("k=%d m=%d workers=%d: %v is not a Corrupt error", k, m, w, err)
			}
			decoded := make(map[int]bool)
			for _, sp := range col.Traces(1)[0].Spans {
				if sp.Name == "decode" {
					decoded[byLen[sp.Tags["bytes"]]] = true
				}
			}
			above := 0
			for si := range n {
				switch {
				case si < k && !decoded[si]:
					t.Errorf("k=%d m=%d workers=%d: stream %d below the failure was not decoded", k, m, w, si)
				case si > k && decoded[si]:
					above++
				}
			}
			if above > w-1 {
				t.Errorf("k=%d m=%d workers=%d: %d streams above the failure decoded, want at most %d", k, m, w, above, w-1)
			}
		}
	}
}
