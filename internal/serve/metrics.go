package serve

// Telemetry: the request wrapper, /healthz and /metrics. Request counts and
// latency have one owner, the obs collector: every instrumented request's
// root span (serve:<endpoint>) feeds that stage's histogram, and /metrics
// reads request counts, cumulative time and the request-duration histogram
// off it. metricsRegistry keeps only what no span measures.

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/reader"
)

// endpoints are the instrumented endpoints, in /metrics order.
var endpoints = []string{"healthz", "fields", "meta", "level", "slice", "ingest"}

// rootStage prefixes an endpoint name to form its root span's name, which
// is also the collector stage holding the endpoint's request histogram.
const rootStage = "serve:"

// metricsRegistry holds the serving counters no span measures.
type metricsRegistry struct {
	// errors counts responses with status >= 400, by endpoint.
	errors map[string]*atomic.Int64
	// degraded counts responses served from a coarser level than requested
	// (X-Degraded set), by endpoint.
	degraded map[string]*atomic.Int64
	// quarantineEvents counts levels newly quarantined after failing
	// integrity checks.
	quarantineEvents atomic.Int64
	// panics counts handler panics converted to 500s by instrument.
	panics atomic.Int64
	// tempsSwept counts stale AtomicFile temporaries removed from the data
	// directory (crash residue).
	tempsSwept atomic.Int64
}

// endpointCounters returns one zeroed counter per endpoint.
func endpointCounters() map[string]*atomic.Int64 {
	m := make(map[string]*atomic.Int64, len(endpoints))
	for _, e := range endpoints {
		m[e] = new(atomic.Int64)
	}
	return m
}

// degradedTotal sums degraded responses across endpoints.
func (m *metricsRegistry) degradedTotal() int64 {
	var n int64
	for _, e := range endpoints {
		n += m.degraded[e].Load()
	}
	return n
}

// statusRecorder captures the response code for the error counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument runs a handler under a request trace — the client's
// X-Request-Id, or a fresh one, echoed back on the response — whose root
// span is the request's one latency measurement, counts responses >= 400,
// and converts a handler panic into a counted 500 instead of tearing down
// the connection. Decode panics are already recovered at the core layer;
// this is the last line of defense for everything else, so one poisoned
// request can never take a worker goroutine down with stacked state. Each
// completed trace lands in the /debug/traces ring; sampled requests
// additionally emit one structured access-log line.
//
// Contract: a trace is visible eventually, not before the last body byte.
// The trace is finished after the handler returns, because its root span
// and status cover the body write; a client that has read the whole
// response may therefore query the ring a moment before the trace is in it.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	stage := rootStage + name
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = obs.NewID()
		}
		w.Header().Set("X-Request-Id", reqID)
		ctx, tr := s.obs.StartTrace(r.Context(), reqID)
		ctx, root := obs.StartSpan(ctx, stage)
		r = r.WithContext(ctx)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.metrics.panics.Add(1)
				rec.status = http.StatusInternalServerError
				// If the handler already wrote headers this is a no-op on
				// the wire; the counters still record the failure.
				http.Error(rec, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
			}
			root.End()
			if rec.status >= 400 {
				s.metrics.errors[name].Add(1)
			}
			degraded := rec.Header().Get("X-Degraded") != ""
			tr.SetAttr("endpoint", name)
			tr.SetAttr("status", strconv.Itoa(rec.status))
			if degraded {
				tr.SetAttr("degraded", "true")
			}
			s.obs.Finish(tr)
			if s.logSample.Allow() {
				s.accessLog.Log(
					"trace", reqID,
					"endpoint", name,
					"method", r.Method,
					"path", r.URL.Path,
					"status", strconv.Itoa(rec.status),
					"degraded", strconv.FormatBool(degraded),
					"dur", time.Since(tr.Start()).String(),
				)
			}
		}()
		h(rec, r)
	}
}

// openField is one open container's counters, as /healthz and /metrics
// report them.
type openField struct {
	id          string
	stats       reader.Stats
	quarantined []int
}

// openFields copies the counters of every open container, sorted by id,
// and sums them across containers (quarantined counts levels). The server
// mutex is held only while the walk copies them.
func (s *Server) openFields() (fields []openField, total reader.Stats, quarantined int) {
	s.mu.Lock()
	fields = make([]openField, 0, len(s.readers))
	for id, e := range s.readers {
		if e.r == nil {
			continue // open in flight or failed
		}
		//lint:ignore mrlint/lockio Stats only loads atomic counters, it cannot block or re-enter the registry
		fields = append(fields, openField{id: id, stats: e.r.Stats(), quarantined: e.quar.levels()})
	}
	s.mu.Unlock()
	slices.SortFunc(fields, func(a, b openField) int { return strings.Compare(a.id, b.id) })
	for _, f := range fields {
		total.BackendDecodes += f.stats.BackendDecodes
		total.BytesRead += f.stats.BytesRead
		total.Retries += f.stats.Retries
		total.CorruptStreams += f.stats.CorruptStreams
		total.CoalescedWaits += f.stats.CoalescedWaits
		quarantined += len(f.quarantined)
	}
	return fields, total, quarantined
}

// fieldHealth is the per-field block of /healthz: the integrity and
// resilience counters of one open container.
type fieldHealth struct {
	Retries           int64 `json:"read_retries"`
	CorruptStreams    int64 `json:"corrupt_streams"`
	QuarantinedLevels []int `json:"quarantined_levels,omitempty"`
}

// handleHealthz reports liveness plus the resilience picture: per-field
// retry/corruption counters and quarantined levels, and the process-wide
// totals. The body always contains the substring "ok" in the status field —
// the deploy smoke greps for it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	open, total, quarantined := s.openFields()
	fields := make(map[string]fieldHealth, len(open))
	for _, f := range open {
		fields[f.id] = fieldHealth{
			Retries:           f.stats.Retries,
			CorruptStreams:    f.stats.CorruptStreams,
			QuarantinedLevels: f.quarantined,
		}
	}
	writeJSON(w, map[string]any{
		"status":             "ok",
		"fields_open":        len(fields),
		"quarantined_levels": quarantined,
		"quarantine_events":  s.metrics.quarantineEvents.Load(),
		"degraded_responses": s.metrics.degradedTotal(),
		"read_retries":       total.Retries,
		"corrupt_streams":    total.CorruptStreams,
		"decode_panics":      s.metrics.panics.Load(),
		"fields":             fields,
	})
}

// handleMetrics serves Prometheus text. One pass over the collector's stage
// histograms yields both mrserve_stage_duration_seconds and, from the
// serve:<endpoint> stages, the request histogram, whose count and sum are
// mrserve_requests_total and mrserve_request_seconds_total. Other counters
// are loaded one by one (a scrape racing a request may see adjacent
// counters a few events apart — standard scrape semantics). The page is
// rendered into a buffer and written in one shot, so a slow scrape
// connection never holds a lock.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	stages := s.obs.StageSnapshots()
	requests := make(map[string]obs.HistogramSnapshot, len(endpoints))
	for _, st := range stages {
		if e, ok := strings.CutPrefix(st.Name, rootStage); ok {
			requests[e] = st.Hist
		}
	}
	fields, total, quarantined := s.openFields()
	cst := s.cache.Stats()

	var b bytes.Buffer
	head := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	scalar := func(name, typ, help string, v int64) {
		head(name, typ, help)
		fmt.Fprintf(&b, "%s %d\n", name, v)
	}
	byEndpoint := func(name, help string, v func(e string) string) {
		head(name, "counter", help)
		for _, e := range endpoints {
			fmt.Fprintf(&b, "%s{endpoint=%q} %s\n", name, e, v(e))
		}
	}
	byField := func(name, help string, v func(reader.Stats) int64) {
		head(name, "counter", help)
		for _, f := range fields {
			fmt.Fprintf(&b, "%s{field=%q} %d\n", name, f.id, v(f.stats))
		}
	}
	load := func(m map[string]*atomic.Int64) func(string) string {
		return func(e string) string { return strconv.FormatInt(m[e].Load(), 10) }
	}

	byEndpoint("mrserve_requests_total", "Requests served, by endpoint.",
		func(e string) string { return strconv.FormatInt(requests[e].Count, 10) })
	byEndpoint("mrserve_request_errors_total", "Requests answered with status >= 400, by endpoint.", load(s.metrics.errors))
	byEndpoint("mrserve_request_seconds_total", "Cumulative request wall time, by endpoint.",
		func(e string) string { return strconv.FormatFloat(requests[e].Sum, 'f', 6, 64) })
	head("mrserve_request_duration_seconds", "histogram", "Request latency histogram, by endpoint.")
	for _, e := range endpoints {
		requests[e].WriteProm(&b, "mrserve_request_duration_seconds", fmt.Sprintf("endpoint=%q", e))
	}
	head("mrserve_stage_duration_seconds", "histogram", "Per-stage latency histogram from request traces (cache probes, footer/stream reads, decodes, reader ops).")
	for _, st := range stages {
		st.Hist.WriteProm(&b, "mrserve_stage_duration_seconds", fmt.Sprintf("stage=%q", st.Name))
	}

	scalar("mrserve_cache_hits_total", "counter", "Brick cache hits.", cst.Hits)
	scalar("mrserve_cache_misses_total", "counter", "Brick cache misses.", cst.Misses)
	scalar("mrserve_cache_evictions_total", "counter", "Brick cache evictions.", cst.Evictions)
	scalar("mrserve_cache_bytes", "gauge", "Bytes of decoded bricks currently cached.", cst.Bytes)
	scalar("mrserve_cache_budget_bytes", "gauge", "Configured brick cache budget.", cst.Budget)
	scalar("mrserve_cache_entries", "gauge", "Bricks currently cached.", int64(cst.Entries))
	scalar("mrserve_coalesced_reads_total", "counter", "Brick requests that joined an in-flight decode of the same brick (singleflight).", total.CoalescedWaits)
	scalar("mrserve_backend_decodes_total", "counter", "Compressed streams decoded across all open fields.", total.BackendDecodes)
	scalar("mrserve_compressed_bytes_read_total", "counter", "Compressed bytes fetched from containers.", total.BytesRead)
	scalar("mrserve_fields_open", "gauge", "Containers currently held open.", int64(len(fields)))

	// Resilience counters: the corruption/retry story per field and overall.
	scalar("mrserve_read_retries_total", "counter", "Source reads retried after transient faults.", total.Retries)
	scalar("mrserve_corrupt_streams_total", "counter", "Streams that failed integrity verification.", total.CorruptStreams)
	byField("mrserve_field_read_retries_total", "Retried source reads, by open field.",
		func(st reader.Stats) int64 { return st.Retries })
	byField("mrserve_field_corrupt_streams_total", "Integrity failures, by open field.",
		func(st reader.Stats) int64 { return st.CorruptStreams })
	byEndpoint("mrserve_degraded_responses_total", "Responses served from a coarser level than requested, by endpoint.", load(s.metrics.degraded))
	scalar("mrserve_quarantine_events_total", "counter", "Levels newly quarantined after integrity failures.", s.metrics.quarantineEvents.Load())
	scalar("mrserve_quarantined_levels", "gauge", "Levels currently quarantined.", int64(quarantined))
	scalar("mrserve_handler_panics_total", "counter", "Handler panics converted to 500s.", s.metrics.panics.Load())
	scalar("mrserve_temps_swept_total", "counter", "Stale write temporaries removed from the data directory.", s.metrics.tempsSwept.Load())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}
