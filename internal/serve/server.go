// Package serve implements the mrserve progressive serving daemon as an
// importable library: the HTTP surface (fields/meta/level/slice/ingest), the
// revalidated reader pool over a shared, version-keyed brick cache,
// corruption quarantine with graceful degradation, and the observability
// plane — per-request traces (X-Request-Id, GET /debug/traces), latency
// histograms and counters on GET /metrics, and structured access/slow logs.
// Each request is timed once, by its trace's root span (serve:<endpoint>):
// the obs collector's histogram for that span is the endpoint's request
// histogram, and the request counters are its count and sum (metrics.go).
// cmd/mrserve is a thin flag wrapper around New + Handler; the serve
// workloads of the bench/ harness drive the same Server over HTTP.
//
// Containers come from a pluggable storage backend (internal/store): a
// local directory, an in-memory object set, or a remote HTTP origin read
// with range requests. The serving semantics — revalidation, quarantine,
// degradation, caching — are identical over every backend.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultio"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/reader"
	"repro/internal/store"
)

// server serves a store of .mrw containers over HTTP. Containers are
// opened lazily on first access and kept open while fresh: lookups
// revalidate the object's current identity (fstat on the filesystem
// backend, HEAD on the HTTP one) against the identity the reader holds, so
// a container replaced underneath (PUT ingest, an external copy) is picked
// up on the next request instead of being served stale forever. Replacing
// invalidates nothing: brick keys carry the container version
// (reader.Version), so the new reader cannot reach the old one's bricks, and
// those age out of the LRU. All readers share one brick cache, so the byte
// budget bounds decoded memory across the whole store regardless of how many
// fields are hot or how many superseded versions are still cached.
type Server struct {
	st             store.Store
	cache          *cache.Cache
	maxIngestBytes int64
	// revalidateEvery spaces identity probes of an open container: 0 means
	// every lookup (the historical behavior, right for local fstat), > 0
	// trusts an open reader for that long between probes (right for remote
	// backends where a probe is a network round trip).
	revalidateEvery time.Duration
	// quarTTL is how long a level whose streams failed integrity checks is
	// skipped by the degraded read path before it is probed again.
	quarTTL time.Duration
	// readerOpts is appended to every reader open — the fault-injection and
	// policy seam (-fault-inject, tests).
	readerOpts []reader.Option

	mu      sync.Mutex
	readers map[string]*readerEntry
	// summaries caches /v1/fields entries keyed by id, so listing a large
	// directory does not hold every container open; each is validated
	// against the object's current identity on use.
	summaries map[string]cachedSummary

	// metrics holds the counters no span measures.
	metrics metricsRegistry
	// obs owns the bounded trace ring (GET /debug/traces), the per-stage
	// latency histograms — request latency included — and slow-request
	// logging; every instrumented request runs under one of its traces.
	obs *obs.Collector
	// accessLog, when non-nil, receives one structured key=value line per
	// sampled request (and the collector's slow-request lines).
	accessLog *obs.Logger
	logSample *obs.Sampler
}

// DefaultQuarantineTTL bounds how long a corrupt level is written off
// before it is probed again (-quarantine-ttl overrides).
const DefaultQuarantineTTL = time.Minute

// Config configures a Server (the flag surface of cmd/mrserve, importable
// so tests and the bench/ serve workloads can run the real serving path
// in-process).
type Config struct {
	// Store is the storage backend holding the .mrw containers. When nil,
	// Dir names a local directory instead.
	Store store.Store
	// Dir is the directory of .mrw containers to serve (ignored when Store
	// is set).
	Dir string
	// CacheBytes is the shared brick-cache budget (0 disables caching).
	CacheBytes int64
	// RevalidateEvery spaces identity probes of open containers: 0
	// revalidates on every lookup, > 0 trusts an open reader that long
	// between probes (recommended for remote backends, where each probe is
	// a HEAD round trip).
	RevalidateEvery time.Duration
	// MaxIngestBytes caps the raw field size PUT ingest accepts.
	MaxIngestBytes int64
	// QuarantineTTL overrides DefaultQuarantineTTL when > 0.
	QuarantineTTL time.Duration
	// TraceSlow, when > 0, logs every request at least this slow to
	// LogWriter with its span breakdown.
	TraceSlow time.Duration
	// LogSample emits one access-log line per LogSample requests to
	// LogWriter (1 = every request, 0 = no access log).
	LogSample int
	// LogWriter is the structured-log destination (nil disables both the
	// access log and the slow-request log).
	LogWriter io.Writer
	// ReaderOptions is appended to every container open — the
	// fault-injection and policy seam (-fault-inject, tests).
	ReaderOptions []reader.Option
}

// New builds a Server from a Config.
func New(cfg Config) (*Server, error) {
	st := cfg.Store
	if st == nil {
		fsStore, err := store.NewFS(cfg.Dir)
		if err != nil {
			return nil, err
		}
		st = fsStore
	}
	ttl := cfg.QuarantineTTL
	if ttl <= 0 {
		ttl = DefaultQuarantineTTL
	}
	col := obs.NewCollector(obs.DefaultRingSize)
	for _, e := range endpoints {
		col.Stage(rootStage + e) // every endpoint's request histogram exists from the start
	}
	logger := obs.NewLogger(cfg.LogWriter)
	if cfg.TraceSlow > 0 {
		col.SetSlowLog(cfg.TraceSlow, logger)
	}
	return &Server{
		st:              st,
		cache:           cache.New(cfg.CacheBytes, cache.DefaultShards),
		maxIngestBytes:  cfg.MaxIngestBytes,
		revalidateEvery: cfg.RevalidateEvery,
		quarTTL:         ttl,
		readerOpts:      cfg.ReaderOptions,
		readers:         make(map[string]*readerEntry),
		summaries:       make(map[string]cachedSummary),
		metrics:         metricsRegistry{errors: endpointCounters(), degraded: endpointCounters()},
		obs:             col,
		accessLog:       logger,
		logSample:       obs.NewSampler(cfg.LogSample),
	}, nil
}

// cachedSummary is a listing entry plus the object identity it was
// computed from.
type cachedSummary struct {
	summary fieldSummary
	info    store.Info
}

// readerEntry is a per-field open slot. The sync.Once serializes the open
// of one container without holding the server-wide mutex, so a slow open
// (e.g. the sequential fallback scan of a large legacy container) blocks
// only requests for that field. The reference count — one for residence in
// the readers map, one per in-flight request — defers the Close of a
// replaced container until its last in-flight request has finished, so an
// object swap never yanks the reader out from under a response being
// written. An entry is never reused for another object version — lookups
// drop it when the stored identity changes — so everything on it, the
// quarantine included, is scoped to one open container version.
type readerEntry struct {
	once sync.Once
	r    *reader.Reader
	err  error
	// quar is this container's corruption negative cache: levels whose
	// streams failed integrity checks, skipped by the degraded read path
	// until they expire.
	quar *quarantine
	// lastCheck is when the identity was last confirmed against the store
	// (under the server mutex); with RevalidateEvery > 0 a recent enough
	// check lets a lookup skip the Stat round trip.
	lastCheck time.Time

	mu   sync.Mutex
	refs int
}

func (e *readerEntry) acquire() {
	e.mu.Lock()
	e.refs++
	e.mu.Unlock()
}

// release drops one reference and closes the reader when the last holder
// lets go. By the time refs can reach zero the entry's once has completed
// (every holder acquired before using it), so reading e.r without the
// server mutex is safe.
func (e *readerEntry) release() {
	e.mu.Lock()
	e.refs--
	last := e.refs == 0
	e.mu.Unlock()
	if last && e.r != nil {
		e.r.Close()
	}
}

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.handleMetrics) // not instrumented: scrapes shouldn't skew latency stats
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/fields", s.instrument("fields", s.handleFields))
	mux.HandleFunc("GET /v1/field/{id}/meta", s.instrument("meta", s.handleMeta))
	mux.HandleFunc("GET /v1/field/{id}/level/{level}", s.instrument("level", s.handleLevel))
	mux.HandleFunc("GET /v1/field/{id}/slice", s.instrument("slice", s.handleSlice))
	mux.HandleFunc("PUT /v1/field/{id}", s.instrument("ingest", s.handleIngest))
	return mux
}

// TracesHandler serves the recent-trace ring as JSON, newest first
// (?n=limit). Mounted at GET /debug/traces on both the serving mux and the
// opt-in debug listener.
func (s *Server) TracesHandler() http.HandlerFunc { return s.handleTraces }

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil {
			n = parsed
		}
	}
	writeJSON(w, map[string]any{"traces": s.obs.Traces(n)})
}

// Close releases every open reader (test teardown / shutdown).
func (s *Server) Close() {
	s.mu.Lock()
	entries := s.readers
	s.readers = make(map[string]*readerEntry)
	s.mu.Unlock()
	for _, e := range entries {
		// Wait out (or forestall) any in-flight open so its Reader
		// cannot be stored into an orphaned entry and leak.
		e.once.Do(func() {})
		e.release() // the map's reference; closes once in-flight requests drain
	}
}

// fieldKey maps a field id to its container object key in the store.
func fieldKey(id string) string { return id + ".mrw" }

// dataDir returns the filesystem backend's directory ("" for non-local
// stores) — the hook tests use to damage container bytes on disk.
func (s *Server) dataDir() string {
	if fsStore, ok := s.st.(*store.FS); ok {
		return fsStore.Dir()
	}
	return ""
}

// FieldIDs lists the ids currently present in the store. Backends that
// cannot enumerate (a plain HTTP origin) surface store.ErrUnsupported,
// which the listing endpoint maps to 501.
func (s *Server) FieldIDs() ([]string, error) {
	keys, err := s.st.List(context.Background())
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(keys))
	for _, k := range keys {
		if strings.HasSuffix(k, ".mrw") {
			ids = append(ids, strings.TrimSuffix(k, ".mrw"))
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// getReader returns the entry holding the open reader for a field id
// (opening it on first use); the caller must release() it once done. The
// server mutex covers only the map lookup and freshness bookkeeping; the
// open itself runs under the entry's once and the revalidation Stat runs
// outside any lock, so concurrent requests for other fields are never
// blocked by either.
func (s *Server) getReader(ctx context.Context, id string) (*readerEntry, error) {
	if !store.ValidKey(id) {
		return nil, errBadID
	}
	key := fieldKey(id)
	var e *readerEntry
	for {
		s.mu.Lock()
		var ok bool
		e, ok = s.readers[id]
		if !ok {
			e = &readerEntry{refs: 1, quar: newQuarantine(s.quarTTL)} // the map's reference
			s.readers[id] = e
			e.acquire() // the request's reference
			s.mu.Unlock()
			break
		}
		e.acquire() // the request's reference
		r := e.r
		opened := r != nil
		fresh := opened && s.revalidateEvery > 0 && time.Since(e.lastCheck) < s.revalidateEvery
		s.mu.Unlock()
		if !opened {
			break // open in flight; join it below
		}
		if fresh {
			return e, nil
		}
		// Revalidate outside the server mutex (the Stat may block on a slow
		// filesystem or a network round trip and must not serialize
		// unrelated requests): when the object at the key no longer matches
		// the identity this reader holds, the container was replaced — drop
		// the stale entry (its reader closes once in-flight requests drain)
		// and retry with a fresh one. The old version's bricks stay cached
		// under the old version's keys, where the new reader cannot see them.
		cur, err := s.st.Stat(ctx, key)
		if err == nil && cur.Same(r.StoreInfo()) {
			s.mu.Lock()
			if s.readers[id] == e {
				e.lastCheck = time.Now()
			}
			s.mu.Unlock()
			return e, nil
		}
		s.mu.Lock()
		if s.readers[id] == e {
			s.dropReaderLocked(id)
		}
		s.mu.Unlock()
		e.release() // the request's reference on the stale entry
	}
	e.once.Do(func() {
		opts := append([]reader.Option{reader.WithCache(s.cache), reader.WithCacheKey(id)}, s.readerOpts...)
		// The opening request's trace gets the store_read and footer_read
		// (or fallback_scan) spans; requests that join a completed once pay
		// nothing.
		r, err := reader.OpenStore(ctx, s.st, key, opts...)
		// Store under the server mutex: openFields, summarize, and Close
		// read entries without going through this once.
		s.mu.Lock()
		e.r, e.err = r, err
		e.lastCheck = time.Now()
		s.mu.Unlock()
	})
	if e.err != nil {
		// Drop the failed entry so the field can be retried later (e.g.
		// the file appears after a copy completes).
		s.mu.Lock()
		if s.readers[id] == e {
			s.dropReaderLocked(id)
		}
		s.mu.Unlock()
		e.release() // the request's reference
		return nil, e.err
	}
	return e, nil
}

// dropReaderLocked takes a field's entry out of the reader map, so the next
// lookup opens the object afresh; the reader closes when its last in-flight
// request finishes. That is all a replace needs: bricks are keyed by
// container version, the listing summary is identity-validated on use, and
// the quarantine goes with the entry. Callers hold s.mu.
func (s *Server) dropReaderLocked(id string) {
	if e, ok := s.readers[id]; ok {
		delete(s.readers, id)
		e.release() // the map's reference
	}
}

var errBadID = fmt.Errorf("invalid field id")

// httpError maps a reader/lookup error to a status code. Fault classes map
// to distinct statuses so clients and probes can react correctly: transient
// faults that outlasted the retry budget are 503 (retry elsewhere/later),
// corruption with no intact fallback is 500 with an explicit message, and a
// canceled request context gets nginx's conventional 499 (the client is
// gone; the code is for the access log, not the wire).
func (s *Server) httpError(w http.ResponseWriter, err error) {
	switch {
	case err == errBadID:
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, fs.ErrNotExist):
		http.Error(w, "unknown field", http.StatusNotFound)
	case errors.Is(err, store.ErrUnsupported):
		http.Error(w, err.Error(), http.StatusNotImplemented)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "client canceled request", 499)
	case faultio.IsTransient(err):
		http.Error(w, "transient backend fault (retries exhausted): "+err.Error(), http.StatusServiceUnavailable)
	case faultio.IsCorrupt(err):
		http.Error(w, "corrupt container data: "+err.Error(), http.StatusInternalServerError)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// --- conditional GETs ---------------------------------------------------------

// cacheControlIntact is sent with full-fidelity responses: cacheable, but
// revalidated against the strong ETag so a replaced container is picked up
// within a minute.
const cacheControlIntact = "public, max-age=60, must-revalidate"

// containerETag is the strong validator of one served representation: the
// container version (reader.Version — the name its cached bricks carry too)
// identifies the object, and the variant pins the representation (level,
// slice coordinates, JSON vs binary). Identical over every storage backend.
func containerETag(rd *reader.Reader, variant string) string {
	return `"` + rd.Version() + "-" + variant + `"`
}

// etagMatch reports whether an If-None-Match header (a comma-separated tag
// list, possibly weak-prefixed or "*") matches etag.
func etagMatch(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c), "W/"))
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

// notModified answers a matched conditional GET: 304 with the validator and
// caching policy restated, no body.
func notModified(w http.ResponseWriter, etag string) {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", cacheControlIntact)
	w.WriteHeader(http.StatusNotModified)
}

// writeField sends a field in the raw binary format (24-byte dims header +
// float64 samples, the same format mrcompress reads and writes), or as
// JSON with ?format=json. A non-empty etag marks a full-fidelity response:
// it is sent with cacheControlIntact, and only once the body is known to
// encode. JSON has no NaN or ±Inf, so a field holding one is answered 406
// with neither — the binary format carries such values bit-exactly.
func writeField(w http.ResponseWriter, r *http.Request, f *field.Field, etag string) {
	var body []byte
	if r.URL.Query().Get("format") == "json" {
		b, err := json.MarshalIndent(map[string]any{"nx": f.Nx, "ny": f.Ny, "nz": f.Nz, "data": f.Data}, "", "  ")
		if err != nil {
			http.Error(w, "field is not representable as JSON ("+err.Error()+"); request the binary format (omit format=json)", http.StatusNotAcceptable)
			return
		}
		body = append(b, '\n')
	}
	h := w.Header()
	if etag != "" {
		h.Set("ETag", etag)
		h.Set("Cache-Control", cacheControlIntact)
	}
	h.Set("X-Mrw-Nx", strconv.Itoa(f.Nx))
	h.Set("X-Mrw-Ny", strconv.Itoa(f.Ny))
	h.Set("X-Mrw-Nz", strconv.Itoa(f.Nz))
	if body != nil {
		h.Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(24+8*f.Len()))
	f.WriteTo(w)
}

// fieldSummary is one entry of GET /v1/fields.
type fieldSummary struct {
	ID             string `json:"id"`
	Nx             int    `json:"nx"`
	Ny             int    `json:"ny"`
	Nz             int    `json:"nz"`
	Levels         int    `json:"levels"`
	ContainerBytes int64  `json:"container_bytes"`
	Indexed        bool   `json:"indexed"`
}

// summarize returns the listing entry for one field without permanently
// holding its container open: an already-open reader is reused, otherwise
// the cached summary is served, otherwise a transient reader computes one
// and is closed again.
func (s *Server) summarize(ctx context.Context, id string, info store.Info) (fieldSummary, error) {
	s.mu.Lock()
	var live *reader.Reader
	if e, ok := s.readers[id]; ok {
		live = e.r
	}
	c, cached := s.summaries[id]
	s.mu.Unlock()
	// An open reader is only trusted while it still matches the stored
	// object; a replaced container falls through to the identity-validated
	// summary cache (or a fresh transient read), so the listing never shows
	// the old object's shape for the new one.
	if live != nil && live.StoreInfo().Same(info) {
		return makeSummary(id, live, info), nil
	}
	if cached && c.info.Same(info) {
		return c.summary, nil
	}

	rd, err := reader.OpenStore(ctx, s.st, fieldKey(id), reader.WithCache(nil))
	if err != nil {
		return fieldSummary{}, err
	}
	sum := makeSummary(id, rd, info)
	rd.Close()
	s.mu.Lock()
	s.summaries[id] = cachedSummary{summary: sum, info: info}
	s.mu.Unlock()
	return sum, nil
}

func makeSummary(id string, rd *reader.Reader, info store.Info) fieldSummary {
	nx, ny, nz := rd.Dims()
	return fieldSummary{
		ID: id, Nx: nx, Ny: ny, Nz: nz,
		Levels:         rd.NumLevels(),
		ContainerBytes: info.Size,
		Indexed:        !rd.FellBack(),
	}
}

func (s *Server) handleFields(w http.ResponseWriter, r *http.Request) {
	ids, err := s.FieldIDs()
	if err != nil {
		s.httpError(w, err)
		return
	}
	out := make([]fieldSummary, 0, len(ids))
	for _, id := range ids {
		info, err := s.st.Stat(r.Context(), fieldKey(id))
		if err != nil {
			continue
		}
		sum, err := s.summarize(r.Context(), id, info)
		if err != nil {
			continue // unreadable container: omit rather than fail the listing
		}
		out = append(out, sum)
	}
	writeJSON(w, map[string]any{"fields": out})
}

// levelMeta is one level's entry of GET /v1/field/{id}/meta.
type levelMeta struct {
	Level           int    `json:"level"`
	Nx              int    `json:"nx"`
	Ny              int    `json:"ny"`
	Nz              int    `json:"nz"`
	UnitBlock       int    `json:"unit_block"`
	Blocks          int    `json:"blocks"`
	Streams         int    `json:"streams"`
	Codec           string `json:"codec,omitempty"`
	CompressedBytes int64  `json:"compressed_bytes"`
	RawBytes        int64  `json:"raw_bytes"`
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	e, err := s.getReader(r.Context(), r.PathValue("id"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	defer e.release()
	rd := e.r
	ix := rd.Index()
	opt := rd.Options()
	levels := make([]levelMeta, 0, ix.NumLevels())
	for l := 0; l < ix.NumLevels(); l++ {
		nx, ny, nz := ix.LevelDims(l)
		lm := levelMeta{
			Level: l, Nx: nx, Ny: ny, Nz: nz,
			UnitBlock:       ix.UnitBlockSize(l),
			Blocks:          len(ix.Levels[l].Blocks),
			Streams:         len(ix.Levels[l].Streams),
			CompressedBytes: ix.CompressedBytes(l),
		}
		for _, si := range ix.Levels[l].Streams {
			lm.RawBytes += ix.Streams[si].RawLen
		}
		// The level's codec, from its streams' per-stream compressor bytes
		// (mixed-codec containers differ per level; within a level all
		// streams share one codec).
		if streams := ix.Levels[l].Streams; len(streams) > 0 {
			lm.Codec = core.Compressor(ix.Streams[streams[0]].Compressor).String()
		}
		levels = append(levels, lm)
	}
	nx, ny, nz := rd.Dims()
	writeJSON(w, map[string]any{
		"id":          r.PathValue("id"),
		"nx":          nx,
		"ny":          ny,
		"nz":          nz,
		"block_b":     ix.BlockB,
		"compressor":  opt.Compressor.String(),
		"arrangement": opt.Arrangement.String(),
		"eb":          opt.EB,
		"indexed":     !rd.FellBack(),
		"levels":      levels,
	})
}

func (s *Server) handleLevel(w http.ResponseWriter, r *http.Request) {
	e, err := s.getReader(r.Context(), r.PathValue("id"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	defer e.release()
	rd := e.r
	l, err := strconv.Atoi(r.PathValue("level"))
	if err != nil {
		http.Error(w, "bad level", http.StatusBadRequest)
		return
	}
	if l < 0 || l >= rd.NumLevels() {
		http.Error(w, "unknown level", http.StatusNotFound)
		return
	}
	s.serveRead(w, r, "level", e, l, fmt.Sprintf("L%d", l), func(lv int) (*field.Field, error) {
		return rd.ReadLevelCtx(r.Context(), lv)
	})
}

func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request) {
	e, err := s.getReader(r.Context(), r.PathValue("id"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	defer e.release()
	rd := e.r
	q := r.URL.Query()
	axisStr := q.Get("axis")
	if axisStr == "" {
		axisStr = "z"
	}
	axis, err := reader.ParseAxis(axisStr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	l := 0
	if v := q.Get("level"); v != "" {
		if l, err = strconv.Atoi(v); err != nil {
			http.Error(w, "bad level", http.StatusBadRequest)
			return
		}
	}
	if l < 0 || l >= rd.NumLevels() {
		http.Error(w, "unknown level", http.StatusNotFound)
		return
	}
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil {
		http.Error(w, "bad or missing k", http.StatusBadRequest)
		return
	}
	nx, ny, nz := rd.Index().LevelDims(l)
	if dim := []int{nx, ny, nz}[axis]; k < 0 || k >= dim {
		http.Error(w, fmt.Sprintf("k out of range [0,%d)", dim), http.StatusBadRequest)
		return
	}
	// On fallback the plane index is rescaled to the coarser grid (k >> levels
	// dropped, clamped), so the served slice covers the same physical cut.
	s.serveRead(w, r, "slice", e, l, fmt.Sprintf("%s%d-L%d", axis, k, l), func(lv int) (*field.Field, error) {
		nx, ny, nz := rd.Index().LevelDims(lv)
		kk := min(k>>uint(lv-l), []int{nx, ny, nz}[axis]-1)
		f, err := rd.ReadSliceCtx(r.Context(), axis, kk, lv)
		if err == nil {
			w.Header().Set("X-Mrw-Axis", axis.String())
			w.Header().Set("X-Mrw-K", strconv.Itoa(kk))
		}
		return f, err
	})
}

// serveRead is the common tail of the level and slice endpoints once their
// parameters are valid. The strong ETag depends only on the container
// version and the requested representation (variant, plus "+json" for
// ?format=json), so a matching If-None-Match answers 304 before any decode:
// the client's cached copy (necessarily full-fidelity — degraded responses
// are never tagged) is still exactly right. Otherwise read runs through the
// degraded walk from level l, and the field goes out with X-Mrw-Level.
func (s *Server) serveRead(w http.ResponseWriter, r *http.Request, endpoint string, e *readerEntry, l int, variant string, read func(lv int) (*field.Field, error)) {
	if r.URL.Query().Get("format") == "json" {
		variant += "+json"
	}
	etag := containerETag(e.r, variant)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		notModified(w, etag)
		return
	}
	f, served, reason, err := s.readDegraded(r.Context(), e, l, read)
	if err != nil {
		s.httpError(w, err)
		return
	}
	if reason != "" {
		w.Header().Set("X-Degraded", degradedHeader(l, served, reason))
		// Degraded payloads must not be cached or revalidated into
		// freshness: the client should re-ask once the quarantine lifts.
		w.Header().Set("Cache-Control", "no-cache")
		s.metrics.degraded[endpoint].Add(1)
		etag = ""
	}
	w.Header().Set("X-Mrw-Level", strconv.Itoa(served))
	writeField(w, r, f, etag)
}

// --- ingest -----------------------------------------------------------------

// ingestParams are the query parameters a PUT accepts.
var ingestParams = []string{"codec", "compressor", "eb", "levelcodecs", "releb", "roiblock", "roifrac"}

// ingestOptions maps PUT query parameters onto compression options. The
// defaults are the paper's recommended configuration at releb 1e-3. Codec
// names (?codec=, its legacy alias ?compressor=, and the per-level
// ?levelcodecs= spec) are validated against the codec table, so an
// unknown name fails with a message enumerating the known codecs. A key
// outside ingestParams is an error too: a misspelt ?relebb= must not
// compress at the default bound and answer 201.
func ingestOptions(q url.Values) (repro.Options, error) {
	opt := repro.Options{RelEB: 1e-3, ROIBlockB: 16, ROITopFrac: 0.5}
	var unknown []string
	for k := range q {
		if !slices.Contains(ingestParams, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return opt, fmt.Errorf("unknown query parameter %s (accepted: %s)", strings.Join(unknown, ", "), strings.Join(ingestParams, ", "))
	}
	// A bound must be finite and positive: NaN fails every comparison, so
	// a `f <= 0` check would let it through to a container no reader can
	// open.
	if v := q.Get("releb"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0) || math.IsInf(f, 1) {
			return opt, fmt.Errorf("bad releb %q: want a finite positive number", v)
		}
		opt.RelEB = f
	}
	if v := q.Get("eb"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0) || math.IsInf(f, 1) {
			return opt, fmt.Errorf("bad eb %q: want a finite positive number", v)
		}
		opt.EB, opt.RelEB = f, 0
	}
	name := q.Get("codec")
	if name == "" {
		name = q.Get("compressor")
	}
	if name != "" {
		c, err := repro.ParseCodec(name)
		if err != nil {
			return opt, err
		}
		opt.Compressor = c
	}
	if v := q.Get("levelcodecs"); v != "" {
		m, err := repro.ParseLevelCodecs(v)
		if err != nil {
			return opt, err
		}
		opt.LevelCodecs = m
	}
	if v := q.Get("roiblock"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 4 {
			return opt, fmt.Errorf("bad roiblock %q", v)
		}
		opt.ROIBlockB = n
	}
	if v := q.Get("roifrac"); v != "" {
		// 0 is not "the default" here, as it is to package roi: a client
		// asking for no ROI must not get half the blocks.
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0 && f <= 1) {
			return opt, fmt.Errorf("bad roifrac %q: want a fraction in (0, 1]", v)
		}
		opt.ROITopFrac = f
	}
	return opt, nil
}

// handleIngest accepts a raw field (24-byte dims header + float64 samples —
// the same format the level endpoint emits) and compresses it into the
// served directory with the streaming write path: the container is written
// stream by stream into a hidden temporary and atomically renamed over
// {id}.mrw, so concurrent readers see either the old or the new container,
// never a partial one. On success the id's open reader is dropped, so the
// next request opens — and serves — the new container whatever
// RevalidateEvery says (read-your-writes). Compression is configured by
// query parameters (ingestParams).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !store.ValidKey(id) {
		s.httpError(w, errBadID)
		return
	}
	opt, err := ingestOptions(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// ReadFromLimit rejects a header whose dimensions imply more than the
	// cap before allocating, so a tiny body cannot reserve gigabytes;
	// MaxBytesReader bounds what the connection may actually deliver.
	body := http.MaxBytesReader(w, r.Body, s.maxIngestBytes)
	f, err := field.ReadFromLimit(body, s.maxIngestBytes)
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) || errors.Is(err, field.ErrTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad field payload: %v", err), status)
		return
	}
	// ReadFromLimit stops at the end of the field its header declares; a
	// body that goes on is a malformed upload, not a field to install.
	if _, err := io.ReadFull(body, make([]byte, 1)); err != io.EOF {
		http.Error(w, fmt.Sprintf("bad field payload: body is longer than the %d bytes its %dx%dx%d header declares",
			24+f.Bytes(), f.Nx, f.Ny, f.Nz), http.StatusBadRequest)
		return
	}
	_, statErr := s.st.Stat(r.Context(), fieldKey(id))
	var res *repro.WriteResult
	err = s.st.Install(r.Context(), fieldKey(id), func(dst io.Writer) error {
		var werr error
		res, werr = repro.CompressTo(f, opt, dst)
		return werr
	})
	if err != nil {
		if errors.Is(err, store.ErrUnsupported) {
			http.Error(w, err.Error(), http.StatusNotImplemented)
			return
		}
		// Storage faults are the server's problem; anything else is a
		// payload/parameter the pipeline rejected.
		status := http.StatusBadRequest
		var perr *fs.PathError
		if errors.As(err, &perr) {
			status = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), status)
		return
	}
	s.mu.Lock()
	s.dropReaderLocked(id)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if errors.Is(statErr, fs.ErrNotExist) {
		w.WriteHeader(http.StatusCreated)
	}
	writeJSON(w, map[string]any{
		"id":                id,
		"nx":                f.Nx,
		"ny":                f.Ny,
		"nz":                f.Nz,
		"container_bytes":   res.Bytes,
		"compression_ratio": res.CompressionRatio,
	})
}

// --- crash-residue sweep ----------------------------------------------------

// staleTempAge is how old an AtomicFile temporary must be before the sweep
// treats it as crash residue rather than a write in flight. Generously past
// the server's write timeouts, so a live ingest can never lose its file.
const staleTempAge = time.Hour

// SweepTemps removes stale AtomicFile temporaries (crash residue) from the
// backing store once, when the backend can accumulate them (the filesystem
// one); other backends have nothing to sweep.
func (s *Server) SweepTemps() {
	sw, ok := s.st.(store.Sweeper)
	if !ok {
		return
	}
	n, err := sw.SweepTemps(staleTempAge)
	if err == nil && n > 0 {
		s.metrics.tempsSwept.Add(int64(n))
	}
}

// SweepLoop runs SweepTemps every interval until stop is closed. Started
// from main; a sweep also runs once at startup before serving.
func (s *Server) SweepLoop(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.SweepTemps()
		case <-stop:
			return
		}
	}
}
