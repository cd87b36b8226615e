package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/parallel"
	"repro/internal/postproc"
	"repro/internal/reader"
	"repro/internal/roi"
	"repro/internal/store"
	"repro/internal/sz3"
	"repro/internal/uncertainty"
	"repro/internal/writer"
)

// The traced pass measures layers from outside the program: a root span
// around each front-door call, then — on the same inputs — calls into the
// exported functions of each layer that call went through, recorded as the
// root's descendants. The replays run after the call they explain, so a
// child's clock interval lies after its parent's; the parent link, not the
// interval, carries the attribution. A span's self time is its duration
// minus its children's. Spans inside the program are a later change.

// span is one timed call. Spans of one op share Op.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: the root, the front-door call itself
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes"`
}

const (
	rootSpan = -1 // parent of a front-door span
	noSpan   = -2 // measure only: a probe of a layer outside any op
)

// prober times calls. Inside an op it records them as spans; either way it
// keeps every duration by name, which is where the layer metrics come from.
type prober struct {
	t0    time.Time
	op    int
	spans []span
	dur   map[string][]float64 // by name: seconds per call (or, for the two reader counters, a count per op)
	bytes map[string]int64     // bytes one call covers
}

func (p *prober) add(parent int, name, layer string, nbytes int64, start time.Time, d time.Duration) int {
	p.dur[name] = append(p.dur[name], d.Seconds())
	p.bytes[name] = nbytes
	if parent == noSpan {
		return noSpan
	}
	s := start.Sub(p.t0).Nanoseconds()
	p.spans = append(p.spans, span{Op: p.op, ID: len(p.spans), Parent: parent, Name: name, Layer: layer,
		Start: s, End: s + d.Nanoseconds(), Bytes: nbytes})
	return len(p.spans) - 1
}

func (p *prober) time(parent int, name, layer string, nbytes int64, fn func()) int {
	t0 := time.Now()
	fn()
	return p.add(parent, name, layer, nbytes, t0, time.Since(t0))
}

// try is time for a call that can fail.
func (p *prober) try(parent int, name, layer string, nbytes int64, fn func() error) (int, error) {
	var err error
	id := p.time(parent, name, layer, nbytes, func() { err = fn() })
	return id, err
}

// sec, ms and mbPerS are the median duration (or rate) of the calls recorded
// under a name; 0 when the workload never made that call.
func (p *prober) sec(name string) float64 {
	if len(p.dur[name]) == 0 {
		return 0
	}
	return median(p.dur[name])
}
func (p *prober) ms(name string) float64 { return p.sec(name) * 1e3 }
func (p *prober) mbPerS(name string) float64 {
	if p.sec(name) == 0 {
		return 0
	}
	return float64(p.bytes[name]) / p.sec(name) / 1e6
}

// container is a built container as the replays see it.
type container struct {
	blob []byte
	ix   *index.Index
	opt  core.Options
}

func openContainer(blob []byte, workers int) (*container, error) {
	ix, err := index.ReadFrom(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return nil, err
	}
	opt := core.OptionsFromIndex(ix.Opts)
	opt.Workers = workers
	return &container{blob: blob, ix: ix, opt: opt}, nil
}

func (c *container) params() codec.Params {
	o := c.opt
	return codec.Params{EB: o.EB, AdaptiveEB: o.AdaptiveEB, Alpha: o.Alpha, Beta: o.Beta,
		SZ2BlockSize: o.SZ2BlockSize, Interp: byte(o.Interp)}
}

func (c *container) codecOf() codec.Codec {
	cd, _ := codec.ByID(byte(c.opt.Compressor))
	return cd
}

func (c *container) sz3Options() sz3.Options {
	so := sz3.Options{EB: c.opt.EB, Interp: c.opt.Interp}
	if c.opt.AdaptiveEB {
		so.LevelEB = sz3.AdaptiveLevelEB(c.opt.EB, c.opt.Alpha, c.opt.Beta)
	}
	return so
}

func fieldsBytes(fs []*field.Field) int64 {
	var n int64
	for _, f := range fs {
		n += int64(f.Bytes())
	}
	return n
}

// poolWidth is the pool width core uses for a Workers option.
func poolWidth(workers int) int {
	if workers == 0 {
		return parallel.Workers()
	}
	return workers
}

// arrange replays core.Prepare's layout calls: every level's unit blocks
// merged (and padded) or cut into TAC boxes. It returns the compression
// buffers per level.
func (p *prober) arrange(parent int, c *container, h *grid.Hierarchy) [][]*field.Field {
	bufs := make([][]*field.Field, len(h.Levels))
	for li := range h.Levels {
		if c.opt.Arrangement == core.ArrangeTAC {
			var boxes []layout.Box
			p.time(parent, "layout.TACPartition", "layout", 0, func() { boxes = layout.TACPartition(h, li) })
			p.time(parent, "layout.ExtractBox", "layout", 0, func() {
				for _, b := range boxes {
					bufs[li] = append(bufs[li], layout.ExtractBox(h, li, b))
				}
			})
			continue
		}
		var m *layout.Merged
		p.time(parent, "layout.LinearMerge", "layout", 0, func() { m = layout.LinearMerge(h, li) })
		if m.Data == nil {
			continue
		}
		buf := m.Data
		if c.opt.Pad && h.UnitBlockSize(li) > 4 {
			p.time(parent, "layout.PadXY", "layout", 0, func() { buf = layout.PadXY(m.Data, c.opt.PadKind) })
		}
		bufs[li] = []*field.Field{buf}
	}
	return bufs
}

// compressReplay replays the library compression of one input under parent:
// ROI conversion (uniform inputs), Prepare and its layout calls, CompressTo
// and the codec calls it makes, run on a pool as wide as the workload's.
func (p *prober) compressReplay(parent int, w *workload, c *container, v *variant) error {
	h := v.h
	var err error
	if w.amrFracs == nil {
		p.time(parent, "roi.Convert", "roi", int64(v.f.Bytes()), func() {
			h, err = roi.Convert(v.f, roi.Options{BlockB: w.opt.ROIBlockB, TopFrac: w.opt.ROITopFrac})
		})
		if err != nil {
			return err
		}
	}
	payload := int64(h.PayloadBytes())
	var prep *core.Prepared
	pid := p.time(parent, "core.Prepare", "core", payload, func() { prep, err = core.Prepare(h, c.opt) })
	if err != nil {
		return err
	}
	bufs := p.arrange(pid, c, h)
	cid := p.time(parent, "core.Prepared.CompressTo", "core", payload, func() { _, err = prep.CompressTo(io.Discard) })
	if err != nil {
		return err
	}
	var all []*field.Field
	for _, lb := range bufs {
		all = append(all, lb...)
	}
	cd, params := c.codecOf(), c.params()
	sid := p.time(cid, cd.Name()+".Compress", cd.Name(), fieldsBytes(all), func() {
		_, err = parallel.MapErrWorkers(len(all), poolWidth(w.opt.Workers), func(i int) ([]byte, error) {
			return cd.Compress(all[i], params)
		})
	})
	if err != nil {
		return err
	}
	if cd.Name() == "sz3" {
		_, err = p.huffmanEncode(sid, "huffman.Encode", c, all)
	}
	return err
}

// huffmanEncode entropy-codes the quantization codes sz3 produces for each
// buffer (the codes are computed outside the clock) and returns the streams.
func (p *prober) huffmanEncode(parent int, name string, c *container, bufs []*field.Field) ([][]byte, error) {
	codes := make([][]int32, len(bufs))
	var n int64
	for i, b := range bufs {
		var err error
		if codes[i], err = sz3.Codes(b, c.sz3Options()); err != nil {
			return nil, err
		}
		n += int64(4 * len(codes[i]))
	}
	encs := make([][]byte, len(bufs))
	p.time(parent, name, "huffman", n, func() {
		for i, cs := range codes {
			encs[i] = huffman.Encode(cs)
		}
	})
	return encs, nil
}

// decodeStreams replays the backend decode of the named streams on a pool
// of the given width, as core and the reader do, and returns the fields.
func (p *prober) decodeStreams(parent int, c *container, streams []int, workers int) ([]*field.Field, error) {
	var raw int64
	for _, si := range streams {
		raw += c.ix.Streams[si].RawLen
	}
	cd := c.codecOf()
	var out []*field.Field
	_, err := p.try(parent, cd.Name()+".Decompress", cd.Name(), raw, func() (err error) {
		out, err = parallel.MapErrWorkers(len(streams), poolWidth(workers), func(i int) (*field.Field, error) {
			s := c.ix.Streams[streams[i]]
			return codec.DecompressCtx(context.Background(), cd, c.blob[s.Offset:s.Offset+s.Len])
		})
		return err
	})
	return out, err
}

// levelStreams lists the streams a read of level l needs; with k ≥ 0 only
// those a z-slice at k crosses (every stream of a merged level, the
// intersecting boxes of a TAC level).
func (c *container) levelStreams(l, k int) []int {
	all := c.ix.Levels[l].Streams
	if k < 0 || c.opt.Arrangement != core.ArrangeTAC {
		return all
	}
	u := c.ix.UnitBlockSize(l)
	var hit []int
	for _, si := range all {
		if g := c.ix.Streams[si].Geom; k >= g.Z0*u && k < (g.Z0+g.WZ)*u {
			hit = append(hit, si)
		}
	}
	return hit
}

// place replays the reader's layout work for a merged level: unpad and
// scatter the unit blocks to their domain positions. TAC levels have none:
// the reader copies boxes itself.
func (p *prober) place(parent int, c *container, l int, decoded []*field.Field) error {
	if c.opt.Arrangement == core.ArrangeTAC || len(decoded) == 0 {
		return nil
	}
	f := decoded[0]
	lv := &c.ix.Levels[l]
	if lv.Padded {
		p.time(parent, fmt.Sprintf("layout.UnpadXY.L%d", l), "layout", int64(f.Bytes()), func() { f = layout.UnpadXY(f) })
	}
	nx, ny, nz := c.ix.LevelDims(l)
	dst := field.New(nx, ny, nz)
	_, err := p.try(parent, fmt.Sprintf("layout.LinearPlace.L%d", l), "layout", int64(f.Bytes()), func() error {
		return layout.LinearPlace(&layout.Merged{Data: f, U: c.ix.UnitBlockSize(l), Blocks: lv.Blocks}, dst)
	})
	return err
}

// readReplay replays one level or slice read through the random-access
// reader on the container's bytes, uncached: the reader call itself, then
// the index parse (when the read includes the open), the stream decodes and
// the placement it is made of.
func (p *prober) readReplay(parent int, c *container, o opSpec, withOpen bool) error {
	src := bytes.NewReader(c.blob)
	open := func() (*reader.Reader, error) {
		return reader.Open(src, int64(len(c.blob)), reader.WithCache(nil))
	}
	r, err := open()
	if err != nil {
		return err
	}
	name, k := fmt.Sprintf("reader.ReadLevel.L%d", o.level), -1
	if o.class == opSlice {
		name, k = "reader.ReadSlice", o.k
	}
	nx, ny, nz := c.ix.LevelDims(o.level)
	before := r.Stats()
	rid := p.time(parent, name, "reader", int64(8*nx*ny*nz), func() {
		if withOpen {
			r, err = open()
			if err != nil {
				return
			}
		}
		if k >= 0 {
			_, err = r.ReadSlice(reader.AxisZ, k, o.level)
		} else {
			_, err = r.ReadLevel(o.level)
		}
	})
	if err != nil {
		return err
	}
	if withOpen {
		before = reader.Stats{}
		// Open is the footer parse plus the reader's own set-up; the parse
		// is its child.
		oid := p.time(rid, "reader.Open", "reader", 0, func() { _, err = open() })
		p.time(oid, "index.ReadFrom", "index", 0, func() { _, err = index.ReadFrom(src, int64(len(c.blob))) })
		if err != nil {
			return err
		}
	}
	if k >= 0 {
		st := r.Stats()
		p.dur["reader.decodes_per_slice"] = append(p.dur["reader.decodes_per_slice"],
			float64(st.BackendDecodes-before.BackendDecodes)/float64(len(c.ix.Levels[o.level].Streams)))
		p.dur["reader.bytes_read_per_op"] = append(p.dur["reader.bytes_read_per_op"], float64(st.BytesRead-before.BytesRead))
	}
	streams := c.levelStreams(o.level, k)
	decoded, err := p.decodeStreams(rid, c, streams, 1)
	if err != nil {
		return err
	}
	return p.place(rid, c, o.level, decoded)
}

// decompressReplay replays a full decode: core.DecompressWorkers, then the
// codec calls (same pool width) and the unmerge into a hierarchy.
func (p *prober) decompressReplay(parent int, c *container, workers int) error {
	did, err := p.try(parent, "core.Decompress", "core", 0, func() error {
		_, err := core.DecompressWorkers(c.blob, workers)
		return err
	})
	if err != nil {
		return err
	}
	var streams []int
	for l := range c.ix.Levels {
		streams = append(streams, c.ix.Levels[l].Streams...)
	}
	decoded, err := p.decodeStreams(did, c, streams, workers)
	if err != nil {
		return err
	}
	h, err := grid.New(c.ix.Nx, c.ix.Ny, c.ix.Nz, c.ix.BlockB, len(c.ix.Levels))
	if err != nil {
		return err
	}
	_, err = p.try(did, "layout.unmerge", "layout", fieldsBytes(decoded), func() error {
		for i, si := range streams {
			s := c.ix.Streams[si]
			var err error
			if s.Box >= 0 {
				err = layout.InsertBox(h, s.Level, s.Geom, decoded[i])
			} else {
				f := decoded[i]
				if c.ix.Levels[s.Level].Padded {
					f = layout.UnpadXY(f)
				}
				err = layout.LinearUnmerge(&layout.Merged{Data: f, U: c.ix.UnitBlockSize(s.Level), Blocks: c.ix.Levels[s.Level].Blocks}, h, s.Level)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body: the handler's cost without a socket and without buffering 16 MB.
type discardWriter struct {
	hdr    http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.hdr }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// handlerReplay calls the server's handler directly for the same request
// the root span sent over the socket.
func (p *prober) handlerReplay(parent int, sd *serveDoor, name, method, path string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, path, rd)
	if err != nil {
		return noSpan, err
	}
	h := sd.srv.Handler()
	dw := &discardWriter{hdr: http.Header{}, status: http.StatusOK}
	id := p.time(parent, name, "serve", int64(len(body)), func() { h.ServeHTTP(dw, req) })
	if dw.status >= 300 {
		return id, fmt.Errorf("handler replay %s %s: status %d", method, path, dw.status)
	}
	return id, nil
}

// storeReplay times what a served read pays the store when the reader is
// already open: the identity probe and the positioned reads of the streams.
func (p *prober) storeReplay(parent int, sd *serveDoor, c *container, id string, streams []int) error {
	st, err := store.NewFS(sd.dir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	key := id + ".mrw"
	var h store.Handle
	if _, err := p.try(noSpan, "store.Open", "store", 0, func() (err error) {
		h, err = st.Open(ctx, key)
		return err
	}); err != nil {
		return err
	}
	defer h.Close()
	if _, err := p.try(parent, "store.Stat", "store", 0, func() error {
		_, err := st.Stat(ctx, key)
		return err
	}); err != nil {
		return err
	}
	var n int64
	for _, si := range streams {
		n += c.ix.Streams[si].Len
	}
	_, err = p.try(parent, "store.ReadAt", "store", n, func() error {
		for _, si := range streams {
			s := c.ix.Streams[si]
			if _, err := h.ReadAt(make([]byte, s.Len), s.Offset); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// traceReps is how often the traced pass repeats each op class at
// refSeconds.
const traceReps = 10

// tracedPass repeats each op class a fixed number of times with spans on,
// probes the layers no op of this workload reaches, writes the span file
// and fills in the per-layer metrics.
func tracedPass(w *workload, cfg runConfig, in *inputs, d door, phases map[string]*phase, res *result) error {
	p := &prober{t0: time.Now(), dur: map[string][]float64{}, bytes: map[string]int64{}}
	sd, _ := d.(*serveDoor)
	reps := max(3, int(math.Round(traceReps*cfg.seconds/refSeconds)))
	conts := make([]*container, len(in.variants))
	for i, v := range in.variants {
		c, err := openContainer(v.blob, w.opt.Workers)
		if err != nil {
			return err
		}
		conts[i] = c
	}
	// held is the container an op's target field holds.
	held := func(o opSpec) *container {
		if sd != nil && o.field != scratchField {
			return conts[sd.perm[o.field]]
		}
		return conts[0]
	}

	for _, class := range phaseOrder[:5] {
		// The same op stream the untraced phase drew: same inputs, spans on.
		next := w.phaseOps(class, cfg.seed, in)
		for rep := 0; rep < reps; rep++ {
			o := next()
			p.op++
			t0 := time.Now()
			dt, err := d.do(0, o)
			res.counts.record(err)
			if err != nil {
				continue
			}
			root := p.add(rootSpan, "op."+class, "front", in.rawBytes, t0, dt)
			if err := p.replayOp(root, w, sd, in, held(o), o); err != nil {
				return fmt.Errorf("%s replay: %w", class, err)
			}
		}
	}
	p.op = 0
	if err := p.probeLayers(w, cfg, in, conts[0], sd); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}

	path := filepath.Join(filepath.Dir(cfg.workDir), "trace-"+w.name+".json")
	buf, err := json.Marshal(map[string]any{"workload": w.name, "seed": cfg.seed, "spans": p.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	p.layerMetrics(w, conts[0], phases, res.Metrics)
	return nil
}

// replayOp records, under root, the layer calls the op went through.
func (p *prober) replayOp(root int, w *workload, sd *serveDoor, in *inputs, c *container, o opSpec) error {
	if sd == nil {
		switch o.class {
		case opCompress:
			return p.compressReplay(root, w, c, in.variants[0])
		case opFull:
			return p.decompressReplay(root, c, w.opt.Workers)
		default:
			return p.readReplay(root, c, o, true)
		}
	}
	id := fieldID(o.field)
	if o.class == opCompress {
		v := in.variants[o.variant]
		hid, err := p.handlerReplay(root, sd, "serve.handler_ingest", http.MethodPut, "/v1/field/"+id, v.body)
		if err != nil {
			return err
		}
		var f *field.Field
		p.time(hid, "field.ReadFrom", "field", int64(len(v.body)), func() { f, err = field.ReadFrom(bytes.NewReader(v.body)) })
		if err != nil {
			return err
		}
		if err := p.compressReplay(hid, w, c, &variant{f: f}); err != nil {
			return err
		}
		return p.atomicFile(hid, filepath.Join(sd.dir, "replay.tmp"), in.variants[o.variant].blob)
	}
	levels := []int{o.level}
	if o.class == opFull {
		levels = levels[:0]
		for l := 0; l < in.levels; l++ {
			levels = append(levels, l)
		}
	}
	for _, l := range levels {
		lo := o
		lo.level = l
		name, path := "serve.handler_fine", fmt.Sprintf("/v1/field/%s/level/%d", id, l)
		switch {
		case o.class == opSlice:
			name, path = "serve.handler_slice", fmt.Sprintf("/v1/field/%s/slice?axis=z&k=%d", id, o.k)
		case l == in.levels-1:
			name = "serve.handler_coarse"
		}
		hid, err := p.handlerReplay(root, sd, name, http.MethodGet, path, nil)
		if err != nil {
			return err
		}
		k := -1
		if o.class == opSlice {
			k = o.k
		}
		nx, ny, nz := c.ix.LevelDims(l)
		out := field.New(nx, ny, nz)
		if k >= 0 {
			out = field.New(nx, ny, 1)
		}
		if w.cacheBytes > 0 {
			// Warm: the handler's read is a brick-cache hit, no store and
			// no decode.
			p.cacheProbe(hid, "", out)
		} else {
			if err := p.storeReplay(hid, sd, c, id, c.levelStreams(l, k)); err != nil {
				return err
			}
			if err := p.readReplay(hid, c, lo, false); err != nil {
				return err
			}
		}
		p.time(hid, "field.WriteTo", "field", int64(out.Bytes()), func() { out.WriteTo(io.Discard) })
		// The rest of a served read is transport: the same number of bytes
		// from a handler that does nothing else.
		t0 := time.Now()
		_, dt, err := sd.roundTripURL(0, http.MethodGet, fmt.Sprintf("%s/%d", sd.bare.URL, 24+out.Bytes()), nil)
		if err != nil {
			return err
		}
		p.add(root, "http.transfer", "net/http", int64(24+out.Bytes()), t0, dt)
	}
	return nil
}

// cacheProbe times a brick-cache put and get with a brick-sized value.
func (p *prober) cacheProbe(parent int, prefix string, brick *field.Field) {
	c := cache.New(64<<20, cache.DefaultShards)
	size := int64(brick.Bytes())
	p.time(noSpan, prefix+"cache.Put", "cache", size, func() { c.Put("f0/L0", brick, size) })
	p.time(parent, prefix+"cache.Get", "cache", size, func() { c.Get("f0/L0") })
}

// atomicFile times the durable install of a container-sized file.
func (p *prober) atomicFile(parent int, path string, blob []byte) error {
	_, err := p.try(parent, "writer.AtomicFile", "writer", int64(len(blob)), func() error {
		return writer.AtomicFile(path, 0o644, func(w io.Writer) error {
			_, werr := w.Write(blob)
			return werr
		})
	})
	os.Remove(path)
	return err
}

// probeReps is how often each layer probe outside the ops is repeated.
const probeReps = 5

// probeLayers times, on this workload's own data, the layers its ops do not
// reach (or reach only inside something else), so every layer metric has a
// number on every workload: the three codecs and the entropy coder on the
// level-0 buffers, the cache, field serialization, the durable write, the
// post-processing and uncertainty stages and the two-worker speed-up.
func (p *prober) probeLayers(w *workload, cfg runConfig, in *inputs, c *container, sd *serveDoor) error {
	v := in.variants[0]
	if w.amrFracs != nil {
		// No op of an AMR workload converts a uniform field.
		p.time(noSpan, "roi.Convert", "roi", int64(v.f.Bytes()), func() { roi.Convert(v.f, roi.Options{}) })
	}
	bufs := p.arrange(noSpan, c, v.h)[0]
	raw := fieldsBytes(bufs)
	for rep := 0; rep < probeReps; rep++ {
		if err := p.probeOnce(w, cfg, in, c, sd, bufs, raw); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) probeOnce(w *workload, cfg runConfig, in *inputs, c *container, sd *serveDoor, bufs []*field.Field, raw int64) error {
	v := in.variants[0]
	for _, name := range []string{"sz3", "sz2", "zfp"} {
		cd, _ := codec.ByName(name)
		streams := make([][]byte, len(bufs))
		if _, err := p.try(noSpan, "probe."+name+".Compress", name, raw, func() (err error) {
			for i, b := range bufs {
				if streams[i], err = cd.Compress(b, c.params()); err != nil {
					break
				}
			}
			return err
		}); err != nil {
			return err
		}
		if _, err := p.try(noSpan, "probe."+name+".Decompress", name, raw, func() (err error) {
			for _, s := range streams {
				if _, err = cd.Decompress(s); err != nil {
					break
				}
			}
			return err
		}); err != nil {
			return err
		}
	}
	encs, err := p.huffmanEncode(noSpan, "probe.huffman.Encode", c, bufs)
	if err != nil {
		return err
	}
	if _, err := p.try(noSpan, "probe.huffman.Decode", "huffman", p.bytes["probe.huffman.Encode"], func() (err error) {
		for _, enc := range encs {
			if _, err = huffman.Decode(enc); err != nil {
				break
			}
		}
		return err
	}); err != nil {
		return err
	}
	p.cacheProbe(noSpan, "probe.", v.h.Levels[0].Data)
	var wire bytes.Buffer
	wire.Grow(24 + v.f.Bytes())
	p.time(noSpan, "probe.field.WriteTo", "field", int64(v.f.Bytes()), func() { v.f.WriteTo(&wire) })
	if _, err := p.try(noSpan, "probe.field.ReadFrom", "field", int64(v.f.Bytes()), func() error {
		_, err := field.ReadFrom(&wire)
		return err
	}); err != nil {
		return err
	}
	if err := p.atomicFile(noSpan, filepath.Join(cfg.workDir, "probe.tmp"), v.blob); err != nil {
		return err
	}
	if sd != nil {
		// A server keeps its readers open, so no served op pays the open.
		if err := p.readReplay(noSpan, c, opSpec{class: opLevel, level: len(c.ix.Levels) - 1}, true); err != nil {
			return err
		}
	}

	prep, err := core.Prepare(v.h, c.opt)
	if err != nil {
		return err
	}
	var intens []postproc.Intensity
	if _, err := p.try(noSpan, "postproc.fit", "postproc", 0, func() (err error) {
		intens, err = prep.FindIntensities()
		return err
	}); err != nil {
		return err
	}
	a := intens[0]
	if a == (postproc.Intensity{}) {
		a = postproc.Intensity{0.1, 0.1, 0.1}
	}
	p.time(noSpan, "postproc.Process", "postproc", int64(bufs[0].Bytes()), func() {
		postproc.Process(bufs[0], a, postproc.Options{EB: c.opt.EB, BlockSize: core.PostBlockSize(c.opt, c.ix.UnitBlockSize(0))})
	})
	if _, err := p.try(noSpan, "uncertainty.CrossProbabilities", "uncertainty", int64(v.f.Bytes()), func() error {
		_, err := uncertainty.CrossProbabilities(v.f, v.isoValue(), uncertainty.ErrorModel{StdDev: v.eb / 1.732})
		return err
	}); err != nil {
		return err
	}
	// On two Ps whatever the solo phases ran on: the question is what a
	// second worker buys when there is a second processor.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(2, runtime.NumCPU())))
	for _, workers := range []int{1, 2} {
		opt := w.opt
		opt.Workers = workers
		if _, err := p.try(noSpan, fmt.Sprintf("parallel.compress_w%d", workers), "parallel", in.rawBytes, func() error {
			_, err := w.compressInput(v, opt, io.Discard)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns every span's self time in seconds: its duration minus
// the durations of its children.
func (p *prober) selfTimes() []float64 {
	self := make([]float64, len(p.spans))
	for i, s := range p.spans {
		self[i] += float64(s.End-s.Start) / 1e9
		if s.Parent >= 0 {
			self[s.Parent] -= float64(s.End-s.Start) / 1e9
		}
	}
	return self
}

// selfMs is the median self time of the spans with the given name.
func (p *prober) selfMs(name string) float64 {
	self := p.selfTimes()
	var vs []float64
	for i, s := range p.spans {
		if s.Name == name {
			vs = append(vs, self[i])
		}
	}
	if len(vs) == 0 {
		return 0
	}
	return median(vs) * 1e3
}

// unattributedPct is the share of a class's front-door time that no layer's
// self time accounts for: per op, root minus the self times of all its
// descendants; the median over the class's ops, in percent of the root.
func (p *prober) unattributedPct(class string) float64 {
	self := p.selfTimes()
	var vs []float64
	for i, s := range p.spans {
		if s.Parent == rootSpan && s.Name == "op."+class {
			vs = append(vs, 100*self[i]/(float64(s.End-s.Start)/1e9))
		}
	}
	if len(vs) == 0 {
		return 0
	}
	return median(vs)
}

// layerMetrics turns the recorded durations into the per-layer metrics. A
// layer the workload never calls reads 0.
func (p *prober) layerMetrics(w *workload, c *container, phases map[string]*phase, l map[string]float64) {
	l["roi.convert_ms"] = p.ms("roi.Convert")
	l["layout.merge_ms"] = p.ms("layout.LinearMerge") + p.ms("layout.PadXY") + p.ms("layout.TACPartition") + p.ms("layout.ExtractBox")
	// Decode side: a merged level is unpadded and scattered by the reader;
	// TAC boxes are inserted by core's full decode.
	l["layout.place_ms"] = p.ms("layout.UnpadXY.L0") + p.ms("layout.LinearPlace.L0")
	if c.opt.Arrangement == core.ArrangeTAC {
		l["layout.place_ms"] = p.ms("layout.unmerge")
	}
	l["core.prepare_ms"] = p.ms("core.Prepare")
	l["core.compress_self_ms"] = p.selfMs("core.Prepared.CompressTo")
	l["core.decompress_self_ms"] = p.selfMs("core.Decompress")
	l["core.container_bytes"] = float64(len(c.blob))
	for _, name := range []string{"sz3", "sz2", "zfp", "huffman"} {
		enc, dec := ".Compress", ".Decompress"
		if name == "huffman" {
			enc, dec = ".Encode", ".Decode"
		}
		l[name+strings.ToLower(enc)+"_mb_s"] = p.mbPerS("probe." + name + enc)
		l[name+strings.ToLower(dec)+"_mb_s"] = p.mbPerS("probe." + name + dec)
	}
	if d := p.sec("probe.sz3.Decompress"); d > 0 {
		l["huffman.decode_share"] = p.sec("probe.huffman.Decode") / d
	}
	l["index.read_us"] = p.ms("index.ReadFrom") * 1e3
	if body, ok := index.Locate(c.blob); ok {
		l["index.footer_bytes"] = float64(len(c.blob) - body)
	}
	l["store.open_us"] = p.ms("store.Open") * 1e3
	l["store.read_mb_s"] = p.mbPerS("store.ReadAt")
	l["reader.open_us"] = p.ms("reader.Open") * 1e3
	l["reader.level_self_ms"] = p.selfMs("reader.ReadLevel.L0")
	l["reader.slice_self_ms"] = p.selfMs("reader.ReadSlice")
	l["reader.decodes_per_slice"] = p.sec("reader.decodes_per_slice")
	l["reader.bytes_read_per_op"] = p.sec("reader.bytes_read_per_op")
	l["cache.get_ns"] = p.ms("probe.cache.Get") * 1e6
	l["cache.put_ns"] = p.ms("probe.cache.Put") * 1e6
	l["field.write_mb_s"] = p.mbPerS("probe.field.WriteTo")
	l["field.read_mb_s"] = p.mbPerS("probe.field.ReadFrom")
	for _, k := range []string{"coarse", "fine", "slice", "ingest"} {
		l["serve.handler_"+k+"_ms"] = p.ms("serve.handler_" + k)
	}
	if w.serve {
		for _, k := range []string{"coarse", "fine"} {
			l["serve.http_overhead_"+k+"_ms"] = (quietMedian(phases[k].samples) - quietMedian(p.dur["serve.handler_"+k])) * 1e3
		}
	}
	l["writer.atomic_file_ms"] = p.ms("writer.AtomicFile")
	l["postproc.fit_ms"] = p.ms("postproc.fit")
	l["postproc.process_mb_s"] = p.mbPerS("postproc.Process")
	l["uncertainty.cross_prob_mb_s"] = p.mbPerS("uncertainty.CrossProbabilities")
	if w2 := p.sec("parallel.compress_w2"); w2 > 0 {
		l["parallel.speedup_w2"] = p.sec("parallel.compress_w1") / w2
	}
	over, n := 0.0, 0
	for _, class := range phaseOrder[:5] {
		// Median against median: the traced pass has too few ops for windows.
		if m := median(phases[class].samples); m > 0 && len(p.dur["op."+class]) > 0 {
			over += 100 * (median(p.dur["op."+class])/m - 1)
			n++
		}
	}
	if n > 0 {
		l["trace.overhead_pct"] = over / float64(n)
	}
	l["trace.unattributed_compress_pct"] = p.unattributedPct("compress")
	l["trace.unattributed_fine_pct"] = p.unattributedPct("fine")
}
