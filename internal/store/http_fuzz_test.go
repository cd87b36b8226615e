package store

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/faultio"
)

// cannedReply is one scripted origin answer.
type cannedReply struct {
	status       int
	contentRange string
	body         []byte
}

// cannedOrigin is an http.RoundTripper that answers without a socket: the
// suffix-range GET of Open gets open, every other request gets read.
type cannedOrigin struct{ open, read cannedReply }

func (o cannedOrigin) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	r := o.read
	if strings.HasPrefix(req.Header.Get("Range"), "bytes=-") {
		r = o.open
	}
	h := http.Header{}
	if r.contentRange != "" {
		h.Set("Content-Range", r.contentRange)
	}
	return &http.Response{
		StatusCode:    r.status,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(r.body)),
		ContentLength: int64(len(r.body)),
		Request:       req,
	}, nil
}

func cannedStore(t testing.TB, o cannedOrigin) *HTTP {
	t.Helper()
	st, err := NewHTTP("http://origin.invalid/", HTTPOptions{
		FooterPrefetch: 128,
		ReadAhead:      64,
		Client:         &http.Client{Transport: o},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHTTPOpenRejectsShortTail checks that a suffix-range reply whose range
// stops before the object's last byte is refused as Corrupt: the handle
// serves every read at or past the tail's start from the tail, so a short
// tail would leave those reads without bytes.
func TestHTTPOpenRejectsShortTail(t *testing.T) {
	st := cannedStore(t, cannedOrigin{open: cannedReply{
		status: http.StatusPartialContent, contentRange: "bytes 0-99/1000", body: make([]byte, 100),
	}})
	h, err := st.Open(context.Background(), "obj")
	if err == nil {
		defer h.Close()
		n, rerr := h.ReadAt(make([]byte, 10), 500)
		t.Fatalf("short tail accepted: ReadAt(500) = %d, %v", n, rerr)
	}
	if !faultio.IsCorrupt(err) {
		t.Fatalf("short tail error classified %v, want Corrupt: %v", faultio.Classify(err), err)
	}
}

// FuzzHTTPOpen drives the HTTP backend's open and read paths with fuzzed
// origin replies (status, Content-Range, body). Open may fail, but must
// not panic; on an opened handle, reads across the claimed size must not
// panic and never return fewer bytes than asked with a nil error.
func FuzzHTTPOpen(f *testing.F) {
	obj := make([]byte, 1000)
	for i := range obj {
		obj[i] = byte(i)
	}
	f.Add(uint16(206), "bytes 0-99/1000", obj[:100], uint16(206), obj[:100])
	f.Add(uint16(206), "bytes 872-999/1000", obj[872:], uint16(206), obj)
	f.Add(uint16(206), "bytes 872-999/1000", obj[872:], uint16(200), obj)
	f.Add(uint16(206), "bytes 872-999/1000", obj[872:], uint16(503), []byte(nil))
	f.Add(uint16(200), "", obj, uint16(200), obj)
	f.Add(uint16(206), "bytes 0-9/10", obj[:10], uint16(206), obj[:10])
	f.Add(uint16(404), "", []byte(nil), uint16(404), []byte(nil))

	f.Fuzz(func(t *testing.T, status uint16, contentRange string, body []byte, readStatus uint16, readBody []byte) {
		st := cannedStore(t, cannedOrigin{
			open: cannedReply{status: int(status), contentRange: contentRange, body: body},
			read: cannedReply{status: int(readStatus), contentRange: contentRange, body: readBody},
		})
		h, err := st.Open(context.Background(), "obj")
		if err != nil {
			return
		}
		defer h.Close()
		size := h.Size()
		if size < 0 {
			t.Fatalf("negative size %d", size)
		}
		step := max(size/16, 1)
		for off := int64(0); off <= size; off += step {
			for _, l := range []int{1, 37, 300} {
				p := make([]byte, l)
				n, err := h.ReadAt(p, off)
				if n < 0 || n > len(p) {
					t.Fatalf("ReadAt(%d bytes @%d) = %d", l, off, n)
				}
				if err == nil && n < len(p) {
					t.Fatalf("ReadAt(%d bytes @%d) = %d with a nil error", l, off, n)
				}
			}
			if off+step < off { // overflow near MaxInt64
				break
			}
		}
	})
}
