// Package reader provides random access into compressed multi-resolution
// containers: where core.Decompress decodes every stream, a Reader seeks
// directly to the streams a request needs — one level, one TAC box, one
// slice — and decodes only those, so a consumer wanting the coarsest level
// of a large container touches a few kilobytes instead of the whole file.
//
// Open (over an io.ReaderAt the caller owns) and OpenStore (an object of a
// storage backend, internal/store, whose handle the Reader owns until Close)
// read only the index footer of a version-3 container (internal/index).
// Containers without a usable footer — version 1/2 blobs, or a v3
// blob whose footer was truncated or corrupted — transparently fall back
// to one sequential scan of the whole container (core.BuildIndex), after
// which access is equally random.
//
// The package owns the positioned reads, their retries, the brick cache,
// decode coalescing, counters and trace spans. It does not decode or place:
// every payload it fetches goes through core.DecodeIndexed and every decoded
// stream through core.PlaceIndexed, the same pair core.Decompress and the
// scrub use, so there is one checksum comparison, one size/shape check and
// one arrangement switch for all of them.
//
// Decoded levels and boxes ("bricks") are cached in an optional
// byte-budgeted LRU (internal/cache), so repeated reads of hot levels skip
// the backend decode entirely. The same cache loads each brick once:
// concurrent reads of one cold brick cost one decode. Fields returned by
// Read* methods may be served from that shared cache: treat them as
// read-only.
//
// A Reader is safe for concurrent use when its source is (every store
// handle, os.File and bytes.Reader are).
package reader

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultio"
	"repro/internal/field"
	"repro/internal/index"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/store"
)

// DefaultCacheBytes is the budget of the private brick cache a Reader
// creates when WithCache is not given.
const DefaultCacheBytes = 256 << 20

// Axis names a slicing axis.
type Axis int

// Slicing axes.
const (
	AxisX Axis = iota
	AxisY
	AxisZ
)

func (a Axis) String() string {
	switch a {
	case AxisX:
		return "x"
	case AxisY:
		return "y"
	case AxisZ:
		return "z"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// ParseAxis converts "x", "y", or "z".
func ParseAxis(s string) (Axis, error) {
	switch s {
	case "x":
		return AxisX, nil
	case "y":
		return AxisY, nil
	case "z":
		return AxisZ, nil
	}
	return 0, fmt.Errorf("reader: unknown axis %q", s)
}

// Stats counts what a Reader actually did — the observable difference
// between random access and decode-everything.
type Stats struct {
	// BackendDecodes is the number of compressed streams decoded.
	BackendDecodes int64
	// BytesRead is the number of compressed payload bytes fetched from the
	// source (excluding the index footer; including the full-container scan
	// when falling back on an unindexed blob).
	BytesRead int64
	// CacheHits and CacheMisses count brick-cache outcomes for this reader.
	CacheHits, CacheMisses int64
	// Retries counts source reads that were retried after a transient fault.
	Retries int64
	// CorruptStreams counts streams that failed integrity verification or
	// decode — candidates for quarantine in the serving path.
	CorruptStreams int64
	// CoalescedWaits counts brick requests that joined an in-flight decode
	// of the same brick instead of starting their own.
	CoalescedWaits int64
}

// Option configures a Reader.
type Option func(*Reader)

// WithCache shares a brick cache across readers (the serving setup: one
// byte budget for all open fields). Passing nil disables caching; concurrent
// decodes of one brick are still coalesced.
func WithCache(c *cache.Cache) Option {
	return func(r *Reader) {
		r.cache = c
		if c == nil {
			r.cache = cache.New(0)
		}
	}
}

// WithCacheKey sets the namespace of this container's bricks in a shared
// cache (see brickKey: the container version is always part of the key too,
// so readers over different bytes never share bricks whatever namespace they
// were given). Defaults to the store and key for OpenStore, or a
// process-unique id for Open.
func WithCacheKey(id string) Option {
	return func(r *Reader) { r.id = id }
}

// WithSourceWrap interposes a transform on the container source underneath
// the retry layer — the fault-injection seam: tests (and the CI smoke run)
// wrap the source in a faultio.FaultReaderAt to exercise the serving path
// under storage faults without real broken hardware.
func WithSourceWrap(wrap func(io.ReaderAt) io.ReaderAt) Option {
	return func(r *Reader) { r.srcWrap = wrap }
}

var nextID atomic.Int64

// Reader is an open container handle.
type Reader struct {
	src         io.ReaderAt
	size        int64
	ix          *index.Index
	opt         core.Options
	cache       *cache.Cache // never nil once open: also coalesces decodes
	id          string
	version     string
	fellBack    bool
	retryPolicy faultio.RetryPolicy
	srcWrap     func(io.ReaderAt) io.ReaderAt
	h           store.Handle // set by OpenStore

	backendDecodes atomic.Int64
	bytesRead      atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	retries        atomic.Int64
	corruptStreams atomic.Int64
	coalescedWaits atomic.Int64
}

// Open opens a container accessed through src with the given total size.
// It reads the index footer (plus nothing else); unindexed containers cost
// one full sequential scan up front.
func Open(src io.ReaderAt, size int64, opts ...Option) (*Reader, error) {
	return open(context.Background(), src, size, opts...)
}

// OpenStore opens object key of st, the one open of a container named by a
// path or URL (store.OpenObjectURL resolves the name). The backend open —
// for HTTP, the suffix-range GET that sizes the object and prefetches its
// footer — is a "store_read" span on ctx's trace, ahead of open's spans.
func OpenStore(ctx context.Context, st store.Store, key string, opts ...Option) (*Reader, error) {
	_, sp := obs.StartSpan(ctx, "store_read")
	sp.SetTag("store", st.String())
	sp.SetTag("key", key)
	h, err := st.Open(ctx, key)
	sp.End()
	if err != nil {
		return nil, err
	}
	r, err := open(ctx, h, h.Size(), append([]Option{WithCacheKey(st.String() + key)}, opts...)...)
	if err != nil {
		h.Close()
		return nil, err
	}
	r.h = h
	return r, nil
}

// open is Open under a context: the footer read, or an unindexed
// container's fallback scan, is a span on ctx's trace.
func open(ctx context.Context, src io.ReaderAt, size int64, opts ...Option) (*Reader, error) {
	r := &Reader{size: size, retryPolicy: faultio.DefaultRetryPolicy}
	for _, o := range opts {
		o(r)
	}
	if r.srcWrap != nil {
		src = r.srcWrap(src)
	}
	// Every read — the footer, the fallback scan, stream payloads — goes
	// through the bounded retry layer, so transient storage faults are
	// absorbed before any decode or parse sees them. The OnRetry hook feeds
	// the reader's retry counter (and the caller's hook, when set).
	pol := r.retryPolicy
	callerOnRetry := pol.OnRetry
	pol.OnRetry = func(err error) {
		r.retries.Add(1)
		if callerOnRetry != nil {
			callerOnRetry(err)
		}
	}
	src = faultio.NewRetryReaderAt(src, pol)
	r.src = src
	if r.cache == nil {
		r.cache = cache.New(DefaultCacheBytes)
	}
	if r.id == "" {
		r.id = fmt.Sprintf("mrw#%d", nextID.Add(1))
	}
	_, sp := obs.StartSpan(ctx, "footer_read")
	var err error
	r.ix, err = index.ReadFrom(src, size)
	sp.End()
	if err != nil {
		// No footer (v1/v2, or truncated away) or a corrupt one (CRC
		// mismatch, implausible contents): the body may still be perfectly
		// intact, so degrade to one sequential scan rather than becoming
		// unreadable.
		if r.ix, err = r.scanIndex(ctx); err != nil {
			return nil, err
		}
		r.fellBack = true
	}
	r.opt = core.OptionsFromIndex(r.ix.Opts)
	r.version = fmt.Sprintf("%08x-%x", r.ix.SectionCRC, size)
	return r, nil
}

// scanIndex reads the whole container once and indexes it by the validated
// body scan (core.BuildIndex, the fallback core.Decompress shares). The
// synthesized stream offsets are absolute, so subsequent reads go back to the
// source directly — the scan buffer is not retained (it would pin the whole
// container outside the brick-cache budget).
func (r *Reader) scanIndex(ctx context.Context) (*index.Index, error) {
	ctx, sp := obs.StartSpan(ctx, "fallback_scan")
	defer sp.End()
	blob := make([]byte, r.size)
	if _, err := readAtCtx(ctx, r.src, blob, 0); err != nil {
		return nil, fmt.Errorf("reader: scanning unindexed container: %w", err)
	}
	r.bytesRead.Add(r.size)
	return core.BuildIndex(blob)
}

// readAtCtx routes a positioned read through the source's context-aware
// path when it has one (faultio.RetryReaderAt.ReadAtCtx), so retry events
// land on the request trace and cancellation stops the retry loop.
func readAtCtx(ctx context.Context, src io.ReaderAt, p []byte, off int64) (int, error) {
	if rc, ok := src.(faultio.ReaderAtCtx); ok {
		return rc.ReadAtCtx(ctx, p, off)
	}
	return src.ReadAt(p, off)
}

// Close releases the store handle of a Reader from OpenStore; it does
// nothing on one from Open.
func (r *Reader) Close() error {
	if r.h == nil {
		return nil
	}
	return r.h.Close()
}

// StoreInfo returns the object identity OpenStore observed — the baseline a
// serving tier compares a fresh Stat against to detect a replace — or zero
// on a Reader from Open.
func (r *Reader) StoreInfo() store.Info {
	if r.h == nil {
		return store.Info{}
	}
	return r.h.Info()
}

// Index exposes the parsed container index (read-only).
func (r *Reader) Index() *index.Index { return r.ix }

// Options returns the container's decode options.
func (r *Reader) Options() core.Options { return r.opt }

// NumLevels returns the container's level count.
func (r *Reader) NumLevels() int { return r.ix.NumLevels() }

// Dims returns the fine-level domain dimensions.
func (r *Reader) Dims() (nx, ny, nz int) { return r.ix.Nx, r.ix.Ny, r.ix.Nz }

// FellBack reports whether the container had no usable index footer and
// was scanned sequentially instead.
func (r *Reader) FellBack() bool { return r.fellBack }

// Version names the container version this reader was opened on: the index
// section's CRC (which covers every stream's offset, length and payload
// checksum; the synthesized section's CRC after a fallback scan) and the
// total size, fixed at open. It is the one name a container version has —
// brick keys and the serving tier's ETags are both built from it.
func (r *Reader) Version() string { return r.version }

// brickKey is the only place brick-cache keys are built:
// <namespace>@<version>/L<level>[/B<box>], box < 0 for a merged level. The
// version in the key is what keeps a replaced container coherent without any
// invalidation: a brick decoded by a reader of the old bytes — however late
// it lands in the cache — is unreachable from a reader of the new bytes and
// ages out by LRU.
func (r *Reader) brickKey(level, box int) string {
	if box < 0 {
		return r.id + "@" + r.version + "/L" + strconv.Itoa(level)
	}
	return r.id + "@" + r.version + "/L" + strconv.Itoa(level) + "/B" + strconv.Itoa(box)
}

// Stats snapshots the reader's access counters.
func (r *Reader) Stats() Stats {
	return Stats{
		BackendDecodes: r.backendDecodes.Load(),
		BytesRead:      r.bytesRead.Load(),
		CacheHits:      r.cacheHits.Load(),
		CacheMisses:    r.cacheMisses.Load(),
		Retries:        r.retries.Load(),
		CorruptStreams: r.corruptStreams.Load(),
		CoalescedWaits: r.coalescedWaits.Load(),
	}
}

// cachedField wraps the brick cache with reader-local hit/miss accounting.
// The probe lands on the request trace as a cache_hit or cache_miss leaf
// span.
func (r *Reader) cachedField(ctx context.Context, key string) (*field.Field, bool) {
	start := time.Now()
	if v, ok := r.cache.Get(key); ok {
		r.cacheHits.Add(1)
		obs.Record(ctx, "cache_hit", start, "key", key)
		return v.(*field.Field), true
	}
	r.cacheMisses.Add(1)
	obs.Record(ctx, "cache_miss", start, "key", key)
	return nil, false
}

// brickOnce is the cache-or-decode path for one brick key: the counted
// probe (cachedField), then on a miss the cache's load-once Do, which
// either returns a brick stored since the probe, joins the decode of the
// same key already in flight (a coalesced_wait span), or runs fetch and
// stores its result.
func (r *Reader) brickOnce(ctx context.Context, key string, fetch func() (*field.Field, error)) (*field.Field, error) {
	if f, ok := r.cachedField(ctx, key); ok {
		return f, nil
	}
	start := time.Now()
	v, shared, err := r.cache.Do(key, func() (any, int64, error) {
		f, err := fetch()
		if err != nil {
			return nil, 0, err
		}
		return f, int64(f.Bytes()), nil
	})
	if err != nil {
		return nil, err
	}
	if shared {
		r.coalescedWaits.Add(1)
		obs.Record(ctx, "coalesced_wait", start, "key", key)
	}
	return v.(*field.Field), nil
}

// fetchStream reads stream si's payload and decodes it, without caching.
// The positioned read (with its retries) is the "stream_read" stage; the
// checksum, codec and size/shape checks are core.DecodeIndexed's, so a
// damaged stream is rejected with a typed Corrupt error — before any codec
// sees it whenever the index carries checksums (Index().StreamCRCs).
func (r *Reader) fetchStream(ctx context.Context, si int) (*field.Field, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &r.ix.Streams[si]
	payload := make([]byte, s.Len)
	rctx, sp := obs.StartSpan(ctx, "stream_read")
	if sp != nil {
		sp.SetTag("stream", fmt.Sprintf("L%dB%d", s.Level, s.Box))
	}
	_, err := readAtCtx(rctx, r.src, payload, s.Offset)
	sp.End()
	if err != nil {
		if faultio.IsCorrupt(err) { // a short read: the bytes the index promised are not there
			r.corruptStreams.Add(1)
		}
		return nil, fmt.Errorf("reader: stream L%dB%d: %w", s.Level, s.Box, err)
	}
	r.bytesRead.Add(s.Len)
	f, err := core.DecodeIndexed(ctx, r.ix, si, payload, nil)
	if err != nil {
		r.corruptStreams.Add(1)
		return nil, err
	}
	r.backendDecodes.Add(1)
	return f, nil
}

// boxBrick returns the decoded field of TAC stream si, via the cache, with
// concurrent decodes of the same box coalesced.
func (r *Reader) boxBrick(ctx context.Context, si int) (*field.Field, error) {
	s := &r.ix.Streams[si]
	key := r.brickKey(s.Level, s.Box)
	return r.brickOnce(ctx, key, func() (*field.Field, error) {
		return r.fetchStream(ctx, si)
	})
}

// levelField returns a merged level's placed full-domain array, via the
// cache. Valid only for non-TAC streams.
func (r *Reader) levelField(ctx context.Context, l int) (*field.Field, error) {
	key := r.brickKey(l, -1)
	return r.brickOnce(ctx, key, func() (*field.Field, error) {
		nx, ny, nz := r.ix.LevelDims(l)
		out := field.New(nx, ny, nz)
		for _, si := range r.ix.Levels[l].Streams {
			f, err := r.fetchStream(ctx, si)
			if err != nil {
				return nil, err
			}
			if err := core.PlaceIndexed(r.ix, si, f, out); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
}

func (r *Reader) checkLevel(l int) error {
	if l < 0 || l >= len(r.ix.Levels) {
		return fmt.Errorf("reader: level %d out of range [0,%d)", l, len(r.ix.Levels))
	}
	return nil
}

func (r *Reader) isTAC() bool {
	return core.Arrangement(r.ix.Opts.Arrangement) == core.ArrangeTAC
}

// ReadLevel returns level l as a full-domain array at that level's
// resolution, decoding (or fetching from cache) only that level's streams.
// Samples of blocks owned by other levels are zero; the index's block
// lists say which blocks are meaningful. The returned field may be shared
// with the cache — treat it as read-only.
func (r *Reader) ReadLevel(l int) (*field.Field, error) {
	return r.ReadLevelCtx(context.Background(), l)
}

// ReadLevelCtx is ReadLevel under a context: cancellation is honored
// before each brick fetch, so a disconnected client or a shutting-down
// server stops paying for decodes mid-level.
func (r *Reader) ReadLevelCtx(ctx context.Context, l int) (*field.Field, error) {
	if err := r.checkLevel(l); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "read_level")
	if sp != nil {
		sp.SetTag("level", strconv.Itoa(l))
		defer sp.End()
	}
	if !r.isTAC() {
		return r.levelField(ctx, l)
	}
	nx, ny, nz := r.ix.LevelDims(l)
	out := field.New(nx, ny, nz)
	for _, si := range r.ix.Levels[l].Streams {
		f, err := r.boxBrick(ctx, si)
		if err != nil {
			return nil, err
		}
		if err := core.PlaceIndexed(r.ix, si, f, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReadBox returns TAC box b of level l and its geometry in block
// coordinates, decoding only that box's stream. It errors on containers
// whose arrangement has no boxes (use ReadLevel).
func (r *Reader) ReadBox(l, b int) (*field.Field, layout.Box, error) {
	return r.ReadBoxCtx(context.Background(), l, b)
}

// ReadBoxCtx is ReadBox under a context (see ReadLevelCtx).
func (r *Reader) ReadBoxCtx(ctx context.Context, l, b int) (*field.Field, layout.Box, error) {
	if err := r.checkLevel(l); err != nil {
		return nil, layout.Box{}, err
	}
	if !r.isTAC() {
		return nil, layout.Box{}, fmt.Errorf("reader: container arrangement %v has no boxes", core.Arrangement(r.ix.Opts.Arrangement))
	}
	streams := r.ix.Levels[l].Streams
	if b < 0 || b >= len(streams) {
		return nil, layout.Box{}, fmt.Errorf("reader: box %d out of range [0,%d) in level %d", b, len(streams), l)
	}
	ctx, sp := obs.StartSpan(ctx, "read_box")
	if sp != nil {
		sp.SetTag("level", strconv.Itoa(l))
		sp.SetTag("box", strconv.Itoa(b))
		defer sp.End()
	}
	si := streams[b]
	f, err := r.boxBrick(ctx, si)
	if err != nil {
		return nil, layout.Box{}, err
	}
	return f, r.ix.Streams[si].Geom, nil
}

// ReadSlice returns the 2D cross-section of level l at index k along the
// given axis (in that level's cells), as a field whose sliced dimension is
// 1. On TAC containers only boxes intersecting the plane are decoded; on
// merged containers the level's single stream is decoded (once — repeats
// hit the cache).
func (r *Reader) ReadSlice(axis Axis, k, l int) (*field.Field, error) {
	return r.ReadSliceCtx(context.Background(), axis, k, l)
}

// ReadSliceCtx is ReadSlice under a context (see ReadLevelCtx).
func (r *Reader) ReadSliceCtx(ctx context.Context, axis Axis, k, l int) (*field.Field, error) {
	if err := r.checkLevel(l); err != nil {
		return nil, err
	}
	nx, ny, nz := r.ix.LevelDims(l)
	dim := [3]int{nx, ny, nz}
	if axis < AxisX || axis > AxisZ {
		return nil, fmt.Errorf("reader: invalid axis %d", axis)
	}
	if k < 0 || k >= dim[axis] {
		return nil, fmt.Errorf("reader: slice %v=%d out of range [0,%d)", axis, k, dim[axis])
	}
	ctx, sp := obs.StartSpan(ctx, "read_slice")
	if sp != nil {
		sp.SetTag("axis", axis.String())
		sp.SetTag("k", strconv.Itoa(k))
		sp.SetTag("level", strconv.Itoa(l))
		defer sp.End()
	}
	onx, ony, onz := nx, ny, nz
	switch axis {
	case AxisX:
		onx = 1
	case AxisY:
		ony = 1
	case AxisZ:
		onz = 1
	}
	if !r.isTAC() {
		lf, err := r.levelField(ctx, l)
		if err != nil {
			return nil, err
		}
		switch axis {
		case AxisX:
			return lf.SubBlock(k, 0, 0, 1, ny, nz), nil
		case AxisY:
			return lf.SubBlock(0, k, 0, nx, 1, nz), nil
		default:
			return lf.SliceZ(k), nil
		}
	}
	out := field.New(onx, ony, onz)
	u := r.ix.UnitBlockSize(l)
	for _, si := range r.ix.Levels[l].Streams {
		g := r.ix.Streams[si].Geom
		lo := [3]int{g.X0 * u, g.Y0 * u, g.Z0 * u}
		w := [3]int{g.WX * u, g.WY * u, g.WZ * u}
		if k < lo[axis] || k >= lo[axis]+w[axis] {
			continue // box does not intersect the plane; skip its decode
		}
		f, err := r.boxBrick(ctx, si)
		if err != nil {
			return nil, err
		}
		kl := k - lo[axis]
		switch axis {
		case AxisX:
			out.SetBlock(0, lo[1], lo[2], f.SubBlock(kl, 0, 0, 1, w[1], w[2]))
		case AxisY:
			out.SetBlock(lo[0], 0, lo[2], f.SubBlock(0, kl, 0, w[0], 1, w[2]))
		default:
			out.SetBlock(lo[0], lo[1], 0, f.SubBlock(0, 0, kl, w[0], w[1], 1))
		}
	}
	return out, nil
}
