package store

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultio"
)

// Default HTTP backend tuning. The footer prefetch is sized to cover the
// index section of any realistic container (trailer + section in one round
// trip, so an open costs exactly one GET); the read-ahead floor batches the
// small stream reads of a sequential level decode into fewer range
// requests.
const (
	DefaultFooterPrefetch = 64 << 10
	DefaultReadAhead      = 256 << 10
	defaultHTTPTimeout    = 30 * time.Second
)

// Connection pool bounds of the default client. net/http's default
// transport keeps 2 idle connections per host, so every burst of more
// concurrent ranged reads than that — a level decode's streams, a served
// mix — would dial again for the rest. The default client keeps up to
// httpIdleConnsPerHost idle connections to the origin for
// httpIdleConnTimeout.
const (
	httpIdleConnsPerHost = 64
	httpIdleConnTimeout  = 90 * time.Second
)

var (
	transportOnce sync.Once
	transport     *http.Transport
)

// defaultTransport returns the default client's connection pool, shared by
// every HTTP store in the process: net/http's default transport (proxy from
// the environment, dial and TLS timeouts, HTTP/2) with the bounds above. It
// is built on first use, and only NewHTTP reaches it, so a program that
// opens no HTTP store does not link an HTTP client.
func defaultTransport() *http.Transport {
	transportOnce.Do(func() {
		transport = http.DefaultTransport.(*http.Transport).Clone()
		transport.MaxIdleConnsPerHost = httpIdleConnsPerHost // of the 100 net/http keeps in all
		transport.IdleConnTimeout = httpIdleConnTimeout
	})
	return transport
}

// HTTPOptions tunes the HTTP backend.
type HTTPOptions struct {
	// FooterPrefetch is how many trailing bytes of the object are fetched
	// (with one suffix-range GET) at Open and kept for the handle's
	// lifetime, so the index footer reads that follow cost no further round
	// trips. <= 0 means DefaultFooterPrefetch.
	FooterPrefetch int64
	// ReadAhead is the minimum number of bytes fetched per range request;
	// the surplus past the caller's read is kept and serves subsequent
	// overlapping reads without a round trip. <= 0 means DefaultReadAhead.
	ReadAhead int64
	// Client overrides the http.Client (nil: a client with a bounded
	// overall request timeout on the package's pooled transport).
	Client *http.Client
}

func (o HTTPOptions) withDefaults() HTTPOptions {
	if o.FooterPrefetch <= 0 {
		o.FooterPrefetch = DefaultFooterPrefetch
	}
	if o.ReadAhead <= 0 {
		o.ReadAhead = DefaultReadAhead
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: defaultHTTPTimeout, Transport: defaultTransport()}
	}
	return o
}

// HTTP is the remote range-request backend: objects live behind a base URL
// (any origin that serves files — a CDN, an object store's HTTP gate, a
// static file server) and are read with ranged GETs. Opening an object
// costs one suffix-range GET that both sizes it and prefetches its tail;
// subsequent positioned reads are ranged GETs with read-ahead. Transport
// faults and origin statuses are classified through internal/faultio —
// timeouts/resets/5xx Transient, 404/416 Permanent — so the reader's
// retry/backoff layer applies unchanged. The backend is read-only: Install
// and List return ErrUnsupported.
type HTTP struct {
	base string // normalized with one trailing slash
	opt  HTTPOptions
}

// NewHTTP returns a store over the given http:// or https:// base URL;
// object keys are appended as one path element.
func NewHTTP(base string, opt HTTPOptions) (*HTTP, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("store: http base url: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("store: http base url %q: scheme must be http or https", base)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("store: http base url %q: missing host", base)
	}
	return &HTTP{base: strings.TrimRight(u.String(), "/") + "/", opt: opt.withDefaults()}, nil
}

func (s *HTTP) String() string { return s.base }

func (s *HTTP) objectURL(key string) string { return s.base + url.PathEscape(key) }

// httpInfo extracts the object identity from response headers.
func httpInfo(h http.Header, size int64) Info {
	info := Info{Size: size, ETag: h.Get("ETag")}
	if lm := h.Get("Last-Modified"); lm != "" {
		if t, err := http.ParseTime(lm); err == nil {
			info.ModTime = t
		}
	}
	return info
}

// statusError classifies an unexpected origin status, folding not-found
// into fs.ErrNotExist so callers' missing-object handling works unchanged
// over the remote backend.
func statusError(status int, url string) error {
	err := faultio.HTTPStatusError(status, url)
	if status == http.StatusNotFound || status == http.StatusGone {
		err = faultio.Permanent(fmt.Errorf("store: %s: http %d: %w", url, status, fs.ErrNotExist))
	}
	return err
}

// parseContentRange extracts first, last, and total from a 206 response's
// "bytes first-last/total" header.
func parseContentRange(v string) (first, last, total int64, err error) {
	rest, ok := strings.CutPrefix(v, "bytes ")
	if !ok {
		return 0, 0, 0, fmt.Errorf("store: unparseable Content-Range %q", v)
	}
	span, tot, ok := strings.Cut(rest, "/")
	if !ok {
		return 0, 0, 0, fmt.Errorf("store: unparseable Content-Range %q", v)
	}
	lo, hi, ok := strings.Cut(span, "-")
	if !ok {
		return 0, 0, 0, fmt.Errorf("store: unparseable Content-Range %q", v)
	}
	if first, err = strconv.ParseInt(lo, 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("store: unparseable Content-Range %q", v)
	}
	if last, err = strconv.ParseInt(hi, 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("store: unparseable Content-Range %q", v)
	}
	if total, err = strconv.ParseInt(tot, 10, 64); err != nil || first < 0 || last < first || total <= last {
		return 0, 0, 0, fmt.Errorf("store: implausible Content-Range %q", v)
	}
	return first, last, total, nil
}

// Open fetches the object's tail with one suffix-range GET: the response
// sizes the object (Content-Range total), captures its identity (ETag,
// Last-Modified), and prefetches the last FooterPrefetch bytes so the
// container footer reads that follow are free. An origin that ignores
// Range answers 200 with the whole object; the handle then serves every
// read from the buffered body.
func (s *HTTP) Open(ctx context.Context, key string) (Handle, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	u := s.objectURL(key)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=-%d", s.opt.FooterPrefetch))
	resp, err := s.opt.Client.Do(req)
	if err != nil {
		return nil, faultio.NetError(fmt.Errorf("store: open %s: %w", u, err))
	}
	defer resp.Body.Close()
	h := &httpHandle{s: s, url: u, readAhead: s.opt.ReadAhead}
	switch resp.StatusCode {
	case http.StatusPartialContent:
		first, last, total, perr := parseContentRange(resp.Header.Get("Content-Range"))
		if perr != nil {
			return nil, faultio.Corrupt(perr)
		}
		// Every read at or past the tail is served from it, so the tail
		// must run to the object's last byte.
		if last != total-1 {
			return nil, faultio.Corrupt(fmt.Errorf("store: open %s: tail Content-Range %d-%d stops short of the object's end %d",
				u, first, last, total-1))
		}
		body, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			return nil, faultio.NetError(fmt.Errorf("store: open %s: reading tail: %w", u, rerr))
		}
		if int64(len(body)) != last-first+1 {
			return nil, faultio.Corrupt(fmt.Errorf("store: open %s: tail body %d bytes, Content-Range promised %d",
				u, len(body), last-first+1))
		}
		h.size = total
		h.tail, h.tailOff = body, first
	case http.StatusOK:
		// Origin ignores ranges: the whole object is already on the wire;
		// buffer it and never issue another request.
		body, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			return nil, faultio.NetError(fmt.Errorf("store: open %s: reading body: %w", u, rerr))
		}
		h.size = int64(len(body))
		h.tail, h.tailOff = body, 0
	default:
		return nil, statusError(resp.StatusCode, u)
	}
	h.info = httpInfo(resp.Header, h.size)
	return h, nil
}

// Stat issues a HEAD request: the revalidation probe comparing the
// origin's current ETag (or size + Last-Modified) against an open handle's.
func (s *HTTP) Stat(ctx context.Context, key string) (Info, error) {
	if err := checkKey(key); err != nil {
		return Info{}, err
	}
	u := s.objectURL(key)
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, u, nil)
	if err != nil {
		return Info{}, err
	}
	resp, err := s.opt.Client.Do(req)
	if err != nil {
		return Info{}, faultio.NetError(fmt.Errorf("store: stat %s: %w", u, err))
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Info{}, statusError(resp.StatusCode, u)
	}
	return httpInfo(resp.Header, resp.ContentLength), nil
}

func (s *HTTP) Install(context.Context, string, func(io.Writer) error) error {
	return fmt.Errorf("store: install over %s: %w", s.base, ErrUnsupported)
}

func (s *HTTP) List(context.Context) ([]string, error) {
	return nil, fmt.Errorf("store: list over %s: %w", s.base, ErrUnsupported)
}

// httpHandle is one open remote object: the prefetched tail (immutable),
// plus a single mutex-guarded read-ahead window holding the most recent
// range fetch. Reads outside both cost one ranged GET of at least
// readAhead bytes. Safe for concurrent ReadAt: the window is only read and
// swapped under the mutex; fetches run outside it (concurrent misses race
// to refresh the window — last wins, all return correct bytes).
type httpHandle struct {
	s         *HTTP
	url       string
	size      int64
	info      Info
	tail      []byte
	tailOff   int64
	readAhead int64

	mu     sync.Mutex
	win    []byte
	winOff int64
}

func (h *httpHandle) Close() error { return nil }
func (h *httpHandle) Size() int64  { return h.size }
func (h *httpHandle) Info() Info   { return h.info }

func (h *httpHandle) ReadAt(p []byte, off int64) (int, error) {
	return h.ReadAtCtx(context.Background(), p, off)
}

// ReadAtCtx is ReadAt whose range requests carry ctx, so a canceled or
// timed-out request stops waiting on the origin.
func (h *httpHandle) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: negative read offset %d", off)
	}
	if off >= h.size {
		return 0, io.EOF
	}
	want := p
	if off+int64(len(p)) > h.size {
		want = p[:h.size-off]
	}
	n, err := h.readAt(ctx, want, off)
	if err == nil && n == len(want) && len(want) < len(p) {
		return n, io.EOF
	}
	return n, err
}

func (h *httpHandle) readAt(ctx context.Context, p []byte, off int64) (int, error) {
	// The immutable tail (footer prefetch, or the whole buffered object).
	if off >= h.tailOff {
		return copy(p, h.tail[off-h.tailOff:]), nil
	}
	// The read-ahead window from the previous fetch.
	h.mu.Lock()
	if off >= h.winOff && off+int64(len(p)) <= h.winOff+int64(len(h.win)) {
		n := copy(p, h.win[off-h.winOff:])
		h.mu.Unlock()
		return n, nil
	}
	h.mu.Unlock()
	// Miss: fetch [off, off+max(len(p), readAhead)), clamped to the tail
	// boundary (bytes past it are already resident).
	fetchLen := int64(len(p))
	if fetchLen < h.readAhead {
		fetchLen = h.readAhead
	}
	if off+fetchLen > h.tailOff {
		fetchLen = h.tailOff - off
	}
	buf, err := h.fetch(ctx, off, fetchLen)
	if err != nil {
		return 0, err
	}
	n := copy(p, buf)
	if n < len(p) {
		// The ranged fetch was clamped at the tail boundary; finish from it.
		n += copy(p[n:], h.tail[:len(p)-n])
	}
	h.mu.Lock()
	h.win, h.winOff = buf, off
	h.mu.Unlock()
	return n, nil
}

// fetch GETs [off, off+length) with one range request, classifying
// transport and status failures so the retry layer above reacts correctly.
func (h *httpHandle) fetch(ctx context.Context, off, length int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+length-1))
	resp, err := h.s.opt.Client.Do(req)
	if err != nil {
		return nil, faultio.NetError(fmt.Errorf("store: read %s @%d: %w", h.url, off, err))
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusPartialContent:
		// A replaced object must never leak mixed-version bytes into one
		// handle: when both sides carry a strong validator and they
		// disagree, fail permanently so the caller reopens.
		if et := resp.Header.Get("ETag"); et != "" && h.info.ETag != "" && et != h.info.ETag {
			return nil, faultio.Permanent(fmt.Errorf("store: read %s @%d: object changed at origin (ETag %s, opened %s)",
				h.url, off, et, h.info.ETag))
		}
		body, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			return nil, faultio.NetError(fmt.Errorf("store: read %s @%d: %w", h.url, off, rerr))
		}
		if int64(len(body)) < length {
			return body, io.ErrUnexpectedEOF
		}
		return body[:length], nil
	case http.StatusOK:
		// The origin ignored the range mid-handle: take the slice we need
		// from the full body.
		body, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			return nil, faultio.NetError(fmt.Errorf("store: read %s @%d: %w", h.url, off, rerr))
		}
		if int64(len(body)) < off+length {
			return nil, io.ErrUnexpectedEOF
		}
		return body[off : off+length], nil
	default:
		return nil, statusError(resp.StatusCode, h.url)
	}
}
