package reader

import (
	"context"

	"repro/internal/obs"
	"repro/internal/store"
)

// StoreReader is a Reader over an object opened from a storage backend
// (internal/store): the serving tier's container handle when the backing
// may be a local directory, an in-memory object set, or a remote HTTP
// origin.
type StoreReader struct {
	*Reader
	h store.Handle
}

// Close releases the underlying store handle.
func (sr *StoreReader) Close() error { return sr.h.Close() }

// StoreInfo returns the object identity observed when the handle was
// opened — the baseline a serving tier compares against a fresh Stat to
// detect replace-while-serving, on every backend.
func (sr *StoreReader) StoreInfo() store.Info { return sr.h.Info() }

// OpenStore opens the container object key from st for random access.
func OpenStore(st store.Store, key string, opts ...Option) (*StoreReader, error) {
	return OpenStoreCtx(context.Background(), st, key, opts...)
}

// OpenStoreCtx is OpenStore under a context: the backend open — for the
// HTTP backend, the suffix-range GET that sizes the object and prefetches
// its footer — lands on the request trace as a "store_read" span, ahead of
// OpenCtx's footer_read/fallback_scan.
func OpenStoreCtx(ctx context.Context, st store.Store, key string, opts ...Option) (*StoreReader, error) {
	h, err := func() (store.Handle, error) {
		_, sp := obs.StartSpan(ctx, "store_read")
		sp.SetTag("store", st.String())
		sp.SetTag("key", key)
		defer sp.End()
		return st.Open(ctx, key)
	}()
	if err != nil {
		return nil, err
	}
	r, err := OpenCtx(ctx, h, h.Size(), append([]Option{WithCacheKey(st.String() + key)}, opts...)...)
	if err != nil {
		h.Close()
		return nil, err
	}
	return &StoreReader{Reader: r, h: h}, nil
}
