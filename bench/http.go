package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/serve"
)

// serveDoor drives a real loopback HTTP server over an FS store under the
// benchmark's work dir. Viewers are closed-loop: each client has one
// keep-alive connection and waits for its reply.
type serveDoor struct {
	w    *workload
	in   *inputs
	root string // work dir; every set-up gets a fresh store directory in it
	perm []int  // seeded: field i is installed holding variant perm[i]

	dir     string
	srv     *serve.Server
	ts      *httptest.Server
	clients [2]httpClient
	// bare answers GET /<n> with n zero bytes from a handler that does
	// nothing else: what net/http and the loopback socket cost for a body of
	// that size, with none of this repository's code on the path. The traced
	// pass uses it to attribute the transport share of a served read.
	bare *httptest.Server

	// stored[i] is the variant field i holds, or anyVariant once the mix
	// phase has started replacing containers under concurrent reads: from
	// then on a response must be some whole variant (fresh or old), never a
	// torn mixture.
	mu      sync.Mutex
	stored  []int
	scratch int

	bytesOut, status5xx, degraded atomic.Int64
}

const anyVariant = -1

// httpClient is one closed-loop viewer: a private connection and a private
// body buffer, so reading a reply allocates nothing.
type httpClient struct {
	hc  *http.Client
	buf []byte
}

func newServeDoor(w *workload, in *inputs, root string, seed int64) *serveDoor {
	d := &serveDoor{w: w, in: in, root: root, perm: rngFor(seed, w.name+"/install").Perm(w.fields)}
	for i := range d.clients {
		d.clients[i] = httpClient{
			hc: &http.Client{
				Timeout:   time.Minute,
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			},
			buf: make([]byte, 24+in.rawBytes),
		}
	}
	zeros := make([]byte, 24+in.rawBytes)
	d.bare = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/"))
		if err != nil || n < 0 || n > len(zeros) {
			http.Error(w, "bad size", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(n))
		w.Write(zeros[:n])
	}))
	return d
}

func fieldID(i int) string {
	if i == scratchField {
		return "scratch"
	}
	return "f" + strconv.Itoa(i)
}

// stop shuts the server down and removes its store.
func (d *serveDoor) stop() {
	if d.ts != nil {
		d.ts.Close()
		d.srv.Close()
		d.ts, d.srv = nil, nil
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
		d.dir = ""
	}
}

func (d *serveDoor) close() {
	d.stop()
	d.bare.Close()
	for i := range d.clients {
		d.clients[i].hc.CloseIdleConnections()
	}
}

// setup starts a server on an empty store, ingests every field through PUT
// (the server's own front door for new data), scrubs each installed
// container, and reads every level of every field once: that pass opens the
// readers and, on the warm workload, fills the brick cache.
func (d *serveDoor) setup() error {
	d.stop()
	dir, err := os.MkdirTemp(d.root, d.w.name+"-store-")
	if err != nil {
		return err
	}
	d.dir = dir
	d.srv, err = serve.New(serve.Config{Dir: dir, CacheBytes: d.w.cacheBytes, MaxIngestBytes: 1 << 30})
	if err != nil {
		return err
	}
	d.ts = httptest.NewServer(d.srv.Handler())
	d.stored = append(d.stored[:0], d.perm...)
	for i, v := range d.perm {
		if _, err := d.put(0, i, v); err != nil {
			return err
		}
		res, err := repro.VerifyFile(context.Background(), filepath.Join(dir, fieldID(i)+".mrw"))
		if err != nil {
			return err
		}
		if !res.OK() {
			return fmt.Errorf("setup: scrub of %s found %d damaged streams", fieldID(i), len(res.Faults))
		}
	}
	for i := range d.perm {
		if _, err := d.do(0, opSpec{class: opFull, field: i}); err != nil {
			return err
		}
	}
	return nil
}

// roundTrip sends one request and reads the whole reply into the client's
// buffer. The clock covers request to last body byte.
func (d *serveDoor) roundTrip(client int, method, path string, body []byte) ([]byte, time.Duration, error) {
	return d.roundTripURL(client, method, d.ts.URL+path, body)
}

func (d *serveDoor) roundTripURL(client int, method, url string, body []byte) ([]byte, time.Duration, error) {
	c := &d.clients[client]
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	n := 0
	for err == nil {
		if n == len(c.buf) {
			c.buf = append(c.buf, 0)[:cap(c.buf)]
		}
		var m int
		m, err = resp.Body.Read(c.buf[n:])
		n += m
	}
	dt := time.Since(t0)
	if err != io.EOF {
		return nil, dt, err
	}
	d.bytesOut.Add(int64(n))
	if resp.StatusCode >= 500 {
		d.status5xx.Add(1)
	}
	if resp.Header.Get("X-Degraded") != "" {
		d.degraded.Add(1)
		return nil, dt, fmt.Errorf("%s %s: degraded response (%s)", method, url, resp.Header.Get("X-Degraded"))
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, dt, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(c.buf[:min(n, 200)])))
	}
	return c.buf[:n], dt, nil
}

func (d *serveDoor) put(client, field, variant int) (time.Duration, error) {
	_, dt, err := d.roundTrip(client, http.MethodPut, "/v1/field/"+fieldID(field), d.in.variants[variant].body)
	return dt, err
}

// holds returns the variant a field is known to hold (anyVariant during mix).
func (d *serveDoor) holds(field int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if field == scratchField {
		return d.scratch
	}
	return d.stored[field]
}

// check compares a reply with what the library reads from the same
// container: sums selects the expected checksum of a variant.
func (d *serveDoor) check(what string, body []byte, held int, sums func(*variant) uint32) error {
	got := crc32.Checksum(body, castagnoli)
	if held != anyVariant {
		if got != sums(d.in.variants[held]) {
			return fmt.Errorf("%s: body differs from the library's read of variant %d", what, held)
		}
		return nil
	}
	for _, v := range d.in.variants {
		if got == sums(v) {
			return nil
		}
	}
	return fmt.Errorf("%s: body matches no variant ever stored (torn or corrupt)", what)
}

func (d *serveDoor) getLevel(client, field, level int) (time.Duration, error) {
	held := d.holds(field)
	body, dt, err := d.roundTrip(client, http.MethodGet, fmt.Sprintf("/v1/field/%s/level/%d", fieldID(field), level), nil)
	if err != nil {
		return dt, err
	}
	return dt, d.check("level", body, held, func(v *variant) uint32 { return v.levelSum[level] })
}

func (d *serveDoor) do(client int, o opSpec) (time.Duration, error) {
	switch o.class {
	case opCompress:
		// Solo phase: nothing else touches the server, so the read that
		// follows the PUT must already see the new data.
		dt, err := d.put(client, o.field, o.variant)
		if err != nil {
			return dt, err
		}
		d.mu.Lock()
		d.scratch = o.variant
		d.mu.Unlock()
		_, err = d.getLevel(client, o.field, d.in.levels-1)
		return dt, err
	case opIngest:
		d.mu.Lock()
		v := (d.perm[o.field] + o.variant) % len(d.in.variants)
		d.stored[o.field] = anyVariant
		d.mu.Unlock()
		dt, err := d.put(client, o.field, v)
		if err != nil {
			return dt, err
		}
		_, err = d.getLevel(client, o.field, d.in.levels-1)
		return dt, err
	case opFull:
		var total time.Duration
		for l := 0; l < d.in.levels; l++ {
			dt, err := d.getLevel(client, o.field, l)
			if err != nil {
				return 0, err
			}
			total += dt
		}
		return total, nil
	case opLevel:
		return d.getLevel(client, o.field, o.level)
	case opSlice:
		held := d.holds(o.field)
		body, dt, err := d.roundTrip(client, http.MethodGet, fmt.Sprintf("/v1/field/%s/slice?axis=z&k=%d", fieldID(o.field), o.k), nil)
		if err != nil {
			return dt, err
		}
		return dt, d.check("slice", body, held, func(v *variant) uint32 { return v.sliceSum[o.k] })
	case opAnalyze:
		// The server has no front door for the analysis loop; the serve
		// workloads report the library call on their own field.
		return d.w.analyze(d.in.variants[0])
	}
	return 0, fmt.Errorf("serve: unknown op class %d", o.class)
}

// scrape reads the server's /metrics and returns the named counters (summed
// over label sets).
func (d *serveDoor) scrape(names ...string) (map[string]float64, error) {
	resp, err := http.Get(d.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(string(text), "\n") {
		for _, name := range names {
			rest, ok := strings.CutPrefix(line, name)
			if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
				continue
			}
			v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
			if err == nil {
				out[name] += v
			}
		}
	}
	return out, nil
}
