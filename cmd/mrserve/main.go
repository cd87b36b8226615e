// Command mrserve is a progressive multi-resolution serving daemon: it
// serves a store of compressed .mrw containers over HTTP, decoding only
// the streams each request needs via the container block index, with all
// decoded bricks shared in one byte-budgeted LRU cache.
//
//	mrserve -dir /data/fields -addr :8080 [-cache-mb 256] [-cache-shards 16]
//	mrserve -store http://origin/fields/ -revalidate-every 30s
//
// Containers come from a pluggable storage backend: -dir (or -store
// file://…) serves a local directory, -store http://… reads a remote origin
// with range requests (ingest and listing answer 501 there), and -store
// mem:// starts empty and is populated by PUT ingest. The brick cache lives
// in memory only: a brick it evicts is re-read and re-decoded from its
// container, which is cheaper than reloading a decoded copy from disk.
//
// Endpoints:
//
//	GET /v1/fields                          list served fields
//	GET /v1/field/{id}/meta                 dims, levels, per-level sizes
//	GET /v1/field/{id}/level/{L}            one resolution level (binary raw
//	                                        field; ?format=json for JSON)
//	GET /v1/field/{id}/slice?axis=z&k=16&level=0
//	                                        one 2D cross-section
//	PUT /v1/field/{id}                      ingest a raw field: compress it
//	                                        (streaming, memory bounded by one
//	                                        worker wave) and atomically
//	                                        install it as {id}.mrw
//	                                        [?releb=|eb=|compressor=|
//	                                        roiblock=|roifrac=]
//	GET /healthz                            liveness
//	GET /metrics                            Prometheus text: request/latency
//	                                        counters and histograms, cache
//	                                        hits/misses, backend decodes
//	GET /debug/traces                       recent request traces (JSON)
//
// Binary responses (and the PUT request body) use the same raw field format
// as mrcompress (24-byte little-endian dims header + float64 samples);
// responses carry X-Mrw-Nx/Ny/Nz headers. A client wanting a quick look
// fetches the coarsest level first and refines on demand — the server never
// decodes more than each request asks for.
//
// Replacing a served container — by PUT or by an external atomic copy —
// takes effect on the next request: every lookup stat-revalidates the open
// reader against the file on disk and reopens a replaced one. Cached bricks
// are keyed by container version, so the new reader never sees the old
// container's; those age out of the LRU.
//
// Corruption degrades instead of failing: every stream read is verified
// against the container's per-stream checksum, a corrupt level is
// quarantined for -quarantine-ttl, and level/slice requests fall back to
// the coarsest intact level with an X-Degraded header. Transient I/O faults
// are retried; exhausted retries answer 503. /healthz and /metrics expose
// per-field corruption, quarantine, and retry counters. Stale write
// temporaries (crash residue from an interrupted ingest) are swept at
// startup and every -sweep-interval.
//
// Observability: every request runs under a trace identified by its
// X-Request-Id header (accepted from the client or generated, always echoed
// back); recent traces — with per-span serve/read/decode timings — are at
// GET /debug/traces, requests slower than -trace-slow are logged with their
// span breakdown, and -log-sample emits a structured access-log line per
// sampled request. /metrics serves fixed-bucket latency histograms per
// endpoint and per pipeline stage alongside the original counters. An
// opt-in -debug-addr listener exposes net/http/pprof (with lock/block
// profiling behind -mutex-profile-fraction and -block-profile-rate) plus
// the same /debug/traces.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/faultio"
	"repro/internal/reader"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		dir         = flag.String("dir", ".", "directory of .mrw containers to serve")
		storeURL    = flag.String("store", "", "storage backend URL (file:///dir, http://origin/prefix/, mem://); overrides -dir")
		reval       = flag.Duration("revalidate-every", 0, "trust an open container this long between identity probes (0 = probe every lookup; recommended > 0 for http stores)")
		rawOrigin   = flag.String("raw-origin", "", `also serve a directory of raw container files over HTTP as "ADDR=DIR" (a range-capable origin with strong ETags, for -store http:// setups and smoke tests)`)
		addr        = flag.String("addr", ":8080", "listen address")
		cacheMB     = flag.Int64("cache-mb", 256, "brick cache budget in MiB (0 disables caching)")
		shards      = flag.Int("cache-shards", 16, "brick cache shard count")
		maxIngestMB = flag.Int64("max-ingest-mb", 1024, "largest raw field accepted by PUT ingest, in MiB")
		quarTTL     = flag.Duration("quarantine-ttl", serve.DefaultQuarantineTTL, "how long a corrupt level is skipped before being probed again")
		sweepEvery  = flag.Duration("sweep-interval", 10*time.Minute, "period between crash-residue sweeps of the data directory (0 disables)")
		faultSpec   = flag.String("fault-inject", "", `inject deterministic read faults for resilience drills, e.g. "seed=7,transient=0.05,maxfaults=100" (testing only)`)

		traceRing = flag.Int("trace-ring", 0, "recent request traces retained for /debug/traces (0 = default)")
		traceSlow = flag.Duration("trace-slow", 0, "log any request at least this slow with its span breakdown (0 disables)")
		logSample = flag.Int("log-sample", 0, "emit one access-log line per N requests (1 = every request, 0 disables)")
		debugAddr = flag.String("debug-addr", "", "optional second listener for net/http/pprof and /debug/traces (e.g. localhost:6060)")
		blockRate = flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate argument for the pprof block profile (0 disables)")
		mutexFrac = flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction argument for the pprof mutex profile (0 disables)")
	)
	flag.Parse()

	if *rawOrigin != "" {
		oaddr, odir, ok := strings.Cut(*rawOrigin, "=")
		if !ok || oaddr == "" || odir == "" {
			fatal(fmt.Errorf(`-raw-origin wants "ADDR=DIR", got %q`, *rawOrigin))
		}
		if err := startRawOrigin(oaddr, odir); err != nil {
			fatal(err)
		}
	}
	cfg := serve.Config{
		Dir:             *dir,
		RevalidateEvery: *reval,
		CacheBytes:      *cacheMB << 20,
		MaxIngestBytes:  *maxIngestMB << 20,
		CacheShards:     *shards,
		QuarantineTTL:   *quarTTL,
		TraceRing:       *traceRing,
		TraceSlow:       *traceSlow,
		LogSample:       *logSample,
		LogWriter:       os.Stderr,
	}
	if *storeURL != "" {
		st, err := store.Open(*storeURL)
		if err != nil {
			fatal(err)
		}
		cfg.Store = st
	}
	if *faultSpec != "" {
		plan, err := serve.ParseFaultPlan(*faultSpec)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mrserve: WARNING: injecting faults into every container read (%s)\n", *faultSpec)
		cfg.ReaderOptions = append(cfg.ReaderOptions, reader.WithSourceWrap(func(src io.ReaderAt) io.ReaderAt {
			return faultio.NewFaultReaderAt(src, plan)
		}))
	}
	s, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	s.SweepTemps()
	if *sweepEvery > 0 {
		go s.SweepLoop(*sweepEvery, make(chan struct{}))
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *debugAddr != "" {
		go serveDebug(*debugAddr, s)
	}
	from := *dir
	if *storeURL != "" {
		from = *storeURL
	}
	if ids, err := s.FieldIDs(); err != nil {
		if !errors.Is(err, store.ErrUnsupported) {
			fatal(err)
		}
		// A plain HTTP origin cannot enumerate; fields are opened on demand.
		fmt.Printf("mrserve: serving %s (listing unsupported) on %s\n", from, *addr)
	} else {
		fmt.Printf("mrserve: serving %d field(s) from %s on %s\n", len(ids), from, *addr)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: s.Handler(),
		// Slow-header clients and idle keep-alive connections are bounded
		// separately from body transfer: ingest uploads and fine-level
		// downloads may legitimately take minutes, a header may not.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       10 * time.Minute, // large ingest bodies
		WriteTimeout:      5 * time.Minute,  // large fine-level payloads
		IdleTimeout:       2 * time.Minute,
	}
	if err := srv.ListenAndServe(); err != nil {
		fatal(err)
	}
}

// startRawOrigin serves dir's files statically on addr — a minimal
// range-capable origin with strong ETags (size + mtime), which is exactly
// what the HTTP store backend wants to talk to: ranged GETs for positioned
// reads, HEAD + ETag for revalidation. The listener is bound synchronously
// so the origin is reachable before the serving store first opens an
// object; requests are then served from a goroutine.
func startRawOrigin(addr, dir string) error {
	if st, err := os.Stat(dir); err != nil {
		return err
	} else if !st.IsDir() {
		return fmt.Errorf("raw origin %s is not a directory", dir)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("raw origin listener: %w", err)
	}
	fmt.Fprintf(os.Stderr, "mrserve: raw origin for %s on %s\n", dir, addr)
	go func() {
		srv := &http.Server{Handler: store.OriginHandler(dir), ReadHeaderTimeout: 10 * time.Second}
		if err := srv.Serve(ln); err != nil {
			fmt.Fprintln(os.Stderr, "mrserve: raw origin:", err)
		}
	}()
	return nil
}

// serveDebug runs the opt-in debug listener: pprof endpoints plus the
// trace ring. Kept off the serving mux so profiling can be bound to
// localhost while the data plane is public.
func serveDebug(addr string, s *serve.Server) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/traces", s.TracesHandler())
	fmt.Fprintf(os.Stderr, "mrserve: debug listener (pprof, traces) on %s\n", addr)
	srv := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "mrserve: debug listener:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrserve:", err)
	os.Exit(1)
}
