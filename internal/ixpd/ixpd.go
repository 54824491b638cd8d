// Package ixpd is the long-lived analysis serving layer: a daemon
// that loads a snapshot/delta dataset once, holds each IXP's classified
// index in the generation's lab — built by the load, never by a
// request — and answers experiment, per-AS, per-community and
// time-series queries over an HTTP JSON API.
//
// The hot path is engineered around three layers of reuse:
//
//  1. Strong ETags derived from the dataset digest plus the canonical
//     query, so a client that revalidates with If-None-Match gets a
//     304 without the server recomputing — or even consulting — the
//     response cache.
//  2. A per-generation response cache holding pre-marshaled JSON
//     bodies, so an identical warm query is a map lookup and one
//     Write.
//  3. Singleflight request coalescing, so N concurrent identical cold
//     queries cost one compute (one experiment run, one marshal)
//     between them.
//
// Computes run behind bounded worker admission with per-request
// timeouts: at most MaxInFlight experiment/marshal computations run
// at once, and a request that cannot be admitted (or whose coalesced
// flight does not finish) within RequestTimeout is answered 503/504
// instead of piling up.
//
// Datasets hot-reload: a polling watcher (no fsnotify dependency)
// detects new collection days landing in the snapshot directory,
// builds the next generation in the background — sharing every
// unchanged day with the serving one, so the cost is what landed — and
// swaps it in atomically. A file that cannot be loaded is skipped and
// reported, never fatal. In-flight requests pinned the old generation pointer at
// entry and finish on it; new requests see the new generation (and
// new ETags, so stale client caches revalidate to 200, not 304).
package ixpd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ixplight/internal/ixpgen"
	"ixplight/internal/report"
	"ixplight/internal/telemetry"
)

// Config parameterises a Server.
type Config struct {
	// Profiles are the IXPs under study; their schemes classify the
	// loaded snapshots.
	Profiles []ixpgen.Profile
	// SnapshotDir, when set, is the dataset directory loaded through
	// report.Lab.Load (mixed codecs, delta chains walked incrementally)
	// and polled for hot reload. When empty the server
	// generates the calibrated synthetic lab instead (Seed/Scale), and
	// reload is disabled.
	SnapshotDir string
	// Seed and Scale parameterise the synthetic lab (and are recorded
	// in the dataset digest).
	Seed  int64
	Scale float64
	// Parallel bounds the lab's load/experiment worker pools.
	// 0 = GOMAXPROCS.
	Parallel int
	// Materialize is forwarded to the snapshot loader (see
	// report.Lab): the reference configuration of the reload oracle,
	// which no command sets.
	Materialize bool
	// MaxInFlight bounds concurrent response computations (experiment
	// runs + marshals). 0 = 2×GOMAXPROCS. Cache hits and 304s are not
	// admission-controlled — they cost a map lookup.
	MaxInFlight int
	// RequestTimeout bounds both the admission wait and the time a
	// request waits on a coalesced flight. 0 = 15s.
	RequestTimeout time.Duration
	// ReloadInterval is the dataset directory poll period. 0 = 5s;
	// negative disables polling.
	ReloadInterval time.Duration
	// CacheCap bounds the per-generation response cache (entries).
	// 0 = 512.
	CacheCap int
	// Telemetry, when set, instruments the server (ixplight_ixpd_*
	// families) and roots an ixpd.request span per served request.
	Telemetry *telemetry.Registry
	// Logf, when set, receives operational log lines (reloads,
	// reload errors). Nil silences them.
	Logf func(format string, args ...any)
}

func (c *Config) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return 2 * runtime.GOMAXPROCS(0)
}

func (c *Config) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return 15 * time.Second
}

func (c *Config) reloadInterval() time.Duration {
	if c.ReloadInterval != 0 {
		return c.ReloadInterval
	}
	return 5 * time.Second
}

func (c *Config) cacheCap() int {
	if c.CacheCap > 0 {
		return c.CacheCap
	}
	return 512
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Server is the warm-index analysis daemon.
type Server struct {
	cfg Config
	met *metrics

	// gen is the current dataset generation. Handlers load it exactly
	// once per request and keep serving from that pointer even if a
	// reload swaps in a newer one mid-request.
	gen    atomic.Pointer[generation]
	genSeq atomic.Uint64
	ready  atomic.Bool

	// reloadMu serialises Load/Reload so two pollers (or a poller and
	// an explicit Reload) never build generations concurrently.
	reloadMu sync.Mutex
	// afterList is a test seam: called between the directory listing
	// and the load that works from it.
	afterList func()

	// sem is the bounded compute admission: one slot per in-flight
	// response computation.
	sem chan struct{}

	// flights coalesces concurrent identical cold queries: the first
	// requester becomes the leader and computes; the rest wait on the
	// same flight.
	flightMu sync.Mutex
	flights  map[flightKey]*flight

	// computes counts actual response computations — the test hook
	// behind the coalescing contract.
	computes atomic.Int64

	mux *http.ServeMux
}

// New builds a Server from cfg. The dataset is not loaded yet: call
// Load (readiness flips once it returns), then serve Handler.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		met:     newMetrics(cfg.Telemetry),
		sem:     make(chan struct{}, cfg.maxInFlight()),
		flights: make(map[flightKey]*flight),
	}
	s.mux = s.routes()
	return s
}

// Load builds and installs the initial dataset generation. The server
// answers /readyz with 503 until it returns.
func (s *Server) Load() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if _, err := s.load(nil); err != nil {
		return err
	}
	s.ready.Store(true)
	return nil
}

// install swaps gen in as the serving generation. A generation is
// installed once per directory signature, so this is also where each
// skipped file is logged once per signature change.
func (s *Server) install(gen *generation) {
	s.gen.Store(gen)
	s.met.generation.Set(int64(gen.id))
	s.met.skipped.Set(int64(len(gen.load.Skipped)))
	s.met.age(gen)
	s.cfg.logf("ixpd: generation %d live (digest %s, %d IXPs)", gen.id, gen.digest, len(gen.lab.Profiles))
	for i := range gen.load.Skipped {
		s.cfg.logf("ixpd: generation %d skipped %v", gen.id, &gen.load.Skipped[i])
	}
}

// Generation returns the id and digest of the serving generation
// (0, "" before Load).
func (s *Server) Generation() (uint64, string) {
	gen := s.gen.Load()
	if gen == nil {
		return 0, ""
	}
	return gen.id, gen.digest
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// routes mounts the API. Every /v1 endpoint runs through the cached
// pipeline; the health pair is deliberately outside it (a readiness
// probe must never be answered from a cache or wait on admission).
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/meta", func(w http.ResponseWriter, r *http.Request) {
		key, _ := cacheKey(r)
		s.serveCached(w, r, "meta", key, func(g *generation) (any, error) {
			return s.metaDoc(g)
		})
	})
	mux.HandleFunc("GET /v1/experiments/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		key, _ := cacheKey(r)
		s.serveCached(w, r, "experiments", key, func(g *generation) (any, error) {
			return s.experimentDoc(g, name)
		})
	})
	mux.HandleFunc("GET /v1/as/{asn}", func(w http.ResponseWriter, r *http.Request) {
		asn := r.PathValue("asn")
		key, ixp := cacheKey(r)
		s.serveCached(w, r, "as", key, func(g *generation) (any, error) {
			return s.asDoc(g, asn, ixp)
		})
	})
	mux.HandleFunc("GET /v1/community/{community}", func(w http.ResponseWriter, r *http.Request) {
		comm := r.PathValue("community")
		key, ixp := cacheKey(r)
		s.serveCached(w, r, "community", key, func(g *generation) (any, error) {
			return s.communityDoc(g, comm, ixp)
		})
	})
	mux.HandleFunc("GET /v1/series/{ixp}", func(w http.ResponseWriter, r *http.Request) {
		ixp := r.PathValue("ixp")
		key, _ := cacheKey(r)
		s.serveCached(w, r, "series", key, func(g *generation) (any, error) {
			return s.seriesDoc(g, ixp)
		})
	})
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, []byte(`{"status":"ok"}`+"\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, []byte(`{"status":"loading"}`+"\n"))
		return
	}
	gen := s.gen.Load()
	writeJSON(w, http.StatusOK, fmt.Appendf(nil, "{\"status\":\"ready\",\"generation\":%d}\n", gen.id))
}

// --- cached request pipeline --------------------------------------------

// httpError carries an endpoint-level status code out of a compute.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// errNotFound builds a 404 compute error.
func errNotFound(format string, args ...any) error {
	return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

type flightKey struct {
	gen uint64
	key string
}

// flight is one in-flight response computation. data/status are
// written once by the leader before done closes.
type flight struct {
	done   chan struct{}
	status int
	data   []byte
}

// serveCached drives one request through the ETag → cache → coalesced
// compute pipeline under key, the request's canonical form (cacheKey).
// compute receives the pinned generation and returns the response
// document (or an *httpError); it must not retain the request, because
// coalesced computes outlive individual requesters.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint, key string, compute func(*generation) (any, error)) {
	t0 := time.Now()
	s.met.inFlight.Inc()
	defer s.met.inFlight.Dec()
	_, sp := telemetry.StartSpan(r.Context(), s.cfg.Telemetry, "ixpd.request")
	code := s.serve(w, r, key, compute)
	if sp != nil {
		sp.SetAttr("endpoint", endpoint)
		sp.SetAttr("path", r.URL.Path)
		sp.SetAttrInt("code", int64(code))
		sp.End()
	}
	s.met.request(endpoint, code, time.Since(t0))
}

func (s *Server) serve(w http.ResponseWriter, r *http.Request, key string, compute func(*generation) (any, error)) int {
	gen := s.gen.Load()
	if gen == nil {
		writeJSON(w, http.StatusServiceUnavailable, []byte(`{"error":"dataset not loaded"}`+"\n"))
		return http.StatusServiceUnavailable
	}

	etag := gen.etagFor(key)

	// Layer 1: revalidation. A matching If-None-Match answers with
	// zero recompute — the ETag is derived, not looked up.
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, etag) {
		s.met.notModified.Inc()
		w.Header()["Etag"] = []string{etag}
		w.WriteHeader(http.StatusNotModified)
		return http.StatusNotModified
	}

	// Layer 2: the pre-marshaled response cache.
	if data, ok := gen.cache.get(key); ok {
		s.met.cacheHits.Inc()
		writeBody(w, http.StatusOK, etag, data)
		return http.StatusOK
	}
	s.met.cacheMisses.Inc()

	// Layer 3: coalesced compute.
	fl, leader := s.joinFlight(gen, key)
	if leader {
		// The compute runs detached from this request's context: a
		// requester giving up must not cancel work other requesters
		// (and the cache) will still use.
		go s.runFlight(gen, key, fl, compute)
	} else {
		s.met.coalesced.Inc()
	}

	timeout := time.NewTimer(s.cfg.requestTimeout())
	defer timeout.Stop()
	select {
	case <-fl.done:
	case <-r.Context().Done():
		// The client is gone; nothing useful can be written.
		s.met.waitTimeouts.Inc()
		return http.StatusGatewayTimeout
	case <-timeout.C:
		s.met.waitTimeouts.Inc()
		writeJSON(w, http.StatusGatewayTimeout, []byte(`{"error":"timed out waiting for computation"}`+"\n"))
		return http.StatusGatewayTimeout
	}
	if fl.status == http.StatusOK {
		writeBody(w, http.StatusOK, etag, fl.data)
		return http.StatusOK
	}
	writeJSON(w, fl.status, fl.data)
	return fl.status
}

// joinFlight returns the flight for (gen, key), creating it (leader =
// true) when no identical query is in flight. A flight may have
// finished between the caller's cache probe and now: it put its body
// before it left the map, so a second probe under the map's lock sees
// it, and the caller follows that finished flight instead of computing
// the same body again.
func (s *Server) joinFlight(gen *generation, key string) (*flight, bool) {
	k := flightKey{gen: gen.id, key: key}
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if fl, ok := s.flights[k]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	if data, ok := gen.cache.get(key); ok {
		fl.status, fl.data = http.StatusOK, data
		close(fl.done)
		return fl, false
	}
	s.flights[k] = fl
	return fl, true
}

// runFlight is the leader's side of a coalesced compute: admission,
// compute, marshal, cache fill, broadcast. A compute that panics is
// contained here — the daemon must outlive a bug in one experiment: the
// leader and every waiter get a 500, nothing is cached, the admission
// slot and the flight are released like on any other exit, and the
// stack goes to the log and the ixpd.compute span.
func (s *Server) runFlight(gen *generation, key string, fl *flight, compute func(*generation) (any, error)) {
	var sp *telemetry.Span
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			s.met.computePanics.Inc()
			s.cfg.logf("ixpd: compute %s panicked: %v\n%s", key, p, stack)
			fl.status = http.StatusInternalServerError
			fl.data, _ = marshalJSON(map[string]string{"error": fmt.Sprintf("internal error: compute panicked: %v", p)})
			if sp != nil {
				sp.SetAttr("error", fmt.Sprint(p))
				sp.SetAttr("stack", string(stack))
				sp.End()
			}
		}
		s.flightMu.Lock()
		delete(s.flights, flightKey{gen: gen.id, key: key})
		s.flightMu.Unlock()
		close(fl.done)
	}()

	// Admission: an uncontended compute takes its slot without arming a
	// timer (under go 1.22 semantics an unstopped timer stays on the heap
	// until it fires, a full RequestTimeout after the request is over).
	select {
	case s.sem <- struct{}{}:
	default:
		wait := time.NewTimer(s.cfg.requestTimeout())
		select {
		case s.sem <- struct{}{}:
			wait.Stop()
		case <-wait.C:
			s.met.rejected.Inc()
			fl.status = http.StatusServiceUnavailable
			fl.data = []byte(`{"error":"compute admission timed out"}` + "\n")
			return
		}
	}
	defer func() { <-s.sem }()

	t0 := time.Now()
	_, sp = telemetry.StartSpan(context.Background(), s.cfg.Telemetry, "ixpd.compute")
	if sp != nil {
		sp.SetAttr("key", key)
	}
	s.computes.Add(1)
	doc, err := compute(gen)
	var data []byte
	if err == nil {
		data, err = marshalJSON(doc)
	}
	if err != nil {
		var he *httpError
		if !errors.As(err, &he) {
			he = &httpError{code: http.StatusInternalServerError, msg: err.Error()}
		}
		fl.status = he.code
		fl.data, _ = marshalJSON(map[string]string{"error": he.msg})
		if sp != nil {
			sp.SetAttr("error", he.msg)
			sp.End()
		}
		s.met.computeSeconds.ObserveSince(t0)
		return
	}
	fl.status = http.StatusOK
	fl.data = data
	gen.cache.put(key, data)
	if sp != nil {
		sp.End()
	}
	s.met.computeSeconds.ObserveSince(t0)
}

// Computes returns the number of response computations the server has
// run — the observable behind the coalescing contract (N concurrent
// identical cold requests bump it exactly once).
func (s *Server) Computes() int64 { return s.computes.Load() }

// --- keys, etags, marshaling --------------------------------------------

// cacheKey canonicalises a request: path plus the sorted query (the
// handlers only consume known parameters, but two orderings of the
// same query must hit the same cache line). Keys and values are
// escaped, and so is a path holding a '?' or '%', so that two requests
// share a key — a cache line and an ETag — only if they decode to the
// same path and the same parameters. It reads RawQuery as
// url.ParseQuery does, dropping exactly what that drops (empty
// segments, segments holding ';', a key or value that does not
// unescape), but into pairs on the stack instead of a url.Values;
// QueryUnescape and QueryEscape return their argument when there is
// nothing to do, so an ordinary request pays one string, the key. ixp
// is the first "ixp" parameter, as url.Values.Get would return it —
// the one parameter a handler reads, taken from the same parse.
func cacheKey(r *http.Request) (key, ixp string) {
	path := r.URL.Path
	if strings.ContainsAny(path, "?%") {
		path = (&url.URL{Path: path}).EscapedPath()
	}
	type pair struct{ k, v string }
	var onStack [8]pair
	pairs, seenIXP := onStack[:0], false
	for query := r.URL.RawQuery; query != ""; {
		var seg string
		seg, query, _ = strings.Cut(query, "&")
		if seg == "" || strings.Contains(seg, ";") {
			continue
		}
		k, v, _ := strings.Cut(seg, "=")
		k, err := url.QueryUnescape(k)
		if err != nil {
			continue
		}
		if v, err = url.QueryUnescape(v); err != nil {
			continue
		}
		if k == "ixp" && !seenIXP {
			ixp, seenIXP = v, true
		}
		pairs = append(pairs, pair{k, v})
	}
	if len(pairs) == 0 {
		return path, ""
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := strings.Compare(a.k, b.k); c != 0 {
			return c
		}
		return strings.Compare(a.v, b.v)
	})
	var buf [128]byte
	b, sep := append(buf[:0], path...), byte('?')
	for _, p := range pairs {
		b = append(append(b, sep), url.QueryEscape(p.k)...)
		b = append(append(b, '='), url.QueryEscape(p.v)...)
		sep = '&'
	}
	return string(b), ixp
}

// etagFor derives the strong ETag for one canonical query under this
// generation: dataset digest prefix + query hash (FNV-1a, 64 bits, as
// 16 hex digits). Deriving (rather than storing) the tag means
// If-None-Match revalidation costs no cache lookup and works even for
// responses the cache has evicted.
func (g *generation) etagFor(key string) string {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	var buf [48]byte
	b := append(append(buf[:0], '"'), g.digest...)
	b = append(b, `-0000000000000000"`...)
	for i := len(b) - 2; h != 0; i, h = i-1, h>>4 {
		b[i] = "0123456789abcdef"[h&15]
	}
	return string(b)
}

// etagMatches implements If-None-Match: a comma-separated list of
// entity tags, or the wildcard.
func etagMatches(header, etag string) bool {
	for header != "" {
		var part string
		part, header, _ = strings.Cut(header, ",")
		part = strings.TrimSpace(part)
		// A W/ prefix still weakly matches the strong tag.
		if part == "*" || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

// bufPool recycles the scratch an experiment's text is rendered into
// before it becomes a document field.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// marshalJSON encodes v as json.Encoder.Encode does — HTML-escaped,
// newline-terminated — without an Encoder or a staging buffer per call:
// Marshal returns a copy sized by append, which all but always leaves
// the newline its byte.
func marshalJSON(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// jsonContentType is the Content-Type value of every response, shared:
// the server only reads header values.
var jsonContentType = []string{"application/json; charset=utf-8"}

func writeJSON(w http.ResponseWriter, code int, data []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	w.Write(data)
}

func writeBody(w http.ResponseWriter, code int, etag string, data []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Etag"] = []string{etag}
	w.WriteHeader(code)
	w.Write(data)
}

// labFor is a test/bench seam: the current generation's lab.
func (s *Server) labFor() *report.Lab {
	if gen := s.gen.Load(); gen != nil {
		return gen.lab
	}
	return nil
}
