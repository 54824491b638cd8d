package ixpd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ixplight/internal/ixpgen"
)

// benchServer loads a small synthetic daemon once per benchmark.
func benchServer(b *testing.B) *Server {
	b.Helper()
	s := New(Config{
		Profiles:       ixpgen.BigFour()[:1],
		Seed:           7,
		Scale:          0.005,
		ReloadInterval: -1,
	})
	if err := s.Load(); err != nil {
		b.Fatal(err)
	}
	return s
}

func benchGet(h http.Handler, path, etag string) int {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// coldClasses is one query per endpoint class of the API; a cold
// request costs very different things on each.
func coldClasses(tb testing.TB, h http.Handler) []struct{ class, path string } {
	tb.Helper()
	var meta MetaDoc
	_, _, body := doGet(tb, h, "/v1/meta", "")
	if err := json.Unmarshal([]byte(body), &meta); err != nil {
		tb.Fatal(err)
	}
	ixp := meta.IXPs[0]
	return []struct{ class, path string }{
		{"experiment", "/v1/experiments/fig5"},
		{"lookup", fmt.Sprintf("/v1/as/%d?ixp=%s", ixp.SampleASNs[0], ixp.IXP)},
		{"series", "/v1/series/" + ixp.IXP},
		{"meta", "/v1/meta"},
	}
}

// nonced appends a parameter no handler reads, which cacheKey still
// canonicalises: the request misses the ETag, the cache and every
// flight in progress.
func nonced(path string, n int) string {
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	return path + sep + "nonce=" + strconv.Itoa(n)
}

// BenchmarkIxpdServe pins the three tiers of the serving pipeline.
// cold forces a fresh compute per request, per endpoint class; warm
// replays one cached query, and etag304 revalidates it. The cold/warm
// gap is the cache win the daemon exists for; TestWarmColdSpeedup pins
// its floor, TestServeAllocs the allocations of each tier.
func BenchmarkIxpdServe(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		s := benchServer(b)
		h := s.Handler()
		for _, q := range coldClasses(b, h) {
			b.Run(q.class, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if code := benchGet(h, nonced(q.path, i), ""); code != http.StatusOK {
						b.Fatalf("code %d", code)
					}
				}
			})
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := benchServer(b)
		h := s.Handler()
		benchGet(h, "/v1/experiments/summary", "") // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := benchGet(h, "/v1/experiments/summary", ""); code != http.StatusOK {
				b.Fatalf("code %d", code)
			}
		}
	})
	b.Run("etag304", func(b *testing.B) {
		s := benchServer(b)
		h := s.Handler()
		req := httptest.NewRequest(http.MethodGet, "/v1/experiments/summary", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		etag := rec.Header().Get("ETag")
		if etag == "" {
			b.Fatal("no etag to revalidate")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := benchGet(h, "/v1/experiments/summary", etag); code != http.StatusNotModified {
				b.Fatalf("code %d", code)
			}
		}
	})
}

// TestWarmColdSpeedup pins the acceptance floor: warm identical-query
// throughput at least 10× the cold first-request path, over real
// sockets. The real gap is orders of magnitude (a cold experiment query
// runs the experiment and builds indexes; a warm one writes cached
// bytes), so 10× holds with huge margin even under the race detector.
func TestWarmColdSpeedup(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The query universe comes from /v1/meta: every experiment, every
	// series and the sampled per-AS and per-community lookups.
	_, _, body := doGet(t, s.Handler(), "/v1/meta", "")
	var meta MetaDoc
	if err := json.Unmarshal([]byte(body), &meta); err != nil {
		t.Fatal(err)
	}
	var queries []string
	for _, name := range meta.Experiments {
		queries = append(queries, "/v1/experiments/"+name)
	}
	for _, ixp := range meta.IXPs {
		queries = append(queries, "/v1/series/"+ixp.IXP)
		for _, asn := range ixp.SampleASNs {
			queries = append(queries, fmt.Sprintf("/v1/as/%d?ixp=%s", asn, ixp.IXP))
		}
		for _, c := range ixp.SampleCommunities {
			queries = append(queries, "/v1/community/"+c)
		}
	}

	// phase issues n requests round-robin over the universe, sending
	// etags[i] as If-None-Match when set and recording the tag of every
	// 200, and returns the status counts and the throughput.
	etags := make([]string, len(queries))
	phase := func(name string, n int, revalidate bool) (statuses map[int]int, qps float64) {
		statuses = make(map[int]int)
		start := time.Now()
		for i := 0; i < n; i++ {
			q := i % len(queries)
			req, err := http.NewRequest(http.MethodGet, ts.URL+queries[q], nil)
			if err != nil {
				t.Fatal(err)
			}
			if revalidate {
				req.Header.Set("If-None-Match", etags[q])
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatalf("phase %s: %v", name, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[resp.StatusCode]++
			if resp.StatusCode == http.StatusOK {
				etags[q] = resp.Header.Get("ETag")
			}
		}
		qps = float64(n) / time.Since(start).Seconds()
		if errs := n - statuses[http.StatusOK] - statuses[http.StatusNotModified]; errs > 0 {
			t.Fatalf("phase %s: %d errors (statuses %v)", name, errs, statuses)
		}
		return statuses, qps
	}

	const requests = 200
	_, coldQPS := phase("cold", len(queries), false) // each distinct query once
	warm, warmQPS := phase("warm", requests, false)
	etag, _ := phase("etag", requests, true)
	if warm[http.StatusOK] != requests {
		t.Fatalf("warm statuses: %v", warm)
	}
	if etag[http.StatusNotModified] != requests {
		t.Fatalf("etag statuses: %v, want all 304", etag)
	}
	t.Logf("%d queries: cold %.0f qps, warm %.0f qps", len(queries), coldQPS, warmQPS)
	if warmQPS < 10*coldQPS {
		t.Fatalf("warm %.0f qps < 10× cold %.0f qps", warmQPS, coldQPS)
	}
}

// discardResponse is an http.ResponseWriter that keeps only the header
// map and the status, so a request costs what the handler itself does.
type discardResponse struct {
	h    http.Header
	code int
}

func (w *discardResponse) Header() http.Header         { return w.h }
func (w *discardResponse) WriteHeader(code int)        { w.code = code }
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestServeAllocs pins the allocations of one in-process request on
// each tier: a warm 200 and a 304 (the key, the ETag and the header
// slice that carries it, a span-less request's bookkeeping), and a cold
// per-AS lookup and a cold fig5 (flight, goroutine, timer, compute,
// marshal, cache put on top). Deterministic counts, so any per-request
// allocation added to the key, ETag, flight, ranking or rendering code
// shows here by name.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := testServer(t, Config{})
	h := s.Handler()
	w := &discardResponse{h: make(http.Header)}
	serve := func(req *http.Request, want int) {
		clear(w.h)
		w.code = http.StatusOK
		h.ServeHTTP(w, req)
		if w.code != want {
			t.Fatalf("%s: code %d, want %d", req.URL, w.code, want)
		}
	}
	classes := coldClasses(t, h)
	lookup, fig5 := classes[1].path, classes[0].path

	warm := httptest.NewRequest(http.MethodGet, lookup, nil)
	serve(warm, http.StatusOK)
	revalidate := httptest.NewRequest(http.MethodGet, lookup, nil)
	revalidate.Header.Set("If-None-Match", w.h.Get("ETag"))
	// A cold request is the same request under a query string not seen
	// before; both are built ahead, so the counts are the handler's.
	const runs = 200
	cold := func(path string) func() {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		var queries []string
		for i := 0; i <= runs; i++ { // AllocsPerRun warms up with one extra call
			_, q, _ := strings.Cut(nonced(path, i), "?")
			queries = append(queries, q)
		}
		return func() {
			req.URL.RawQuery, queries = queries[0], queries[1:]
			serve(req, http.StatusOK)
		}
	}
	for _, tc := range []struct {
		name  string
		f     func()
		floor float64
	}{
		{"warm", func() { serve(warm, http.StatusOK) }, 6},
		{"304", func() { serve(revalidate, http.StatusNotModified) }, 6},
		{"cold lookup", cold(lookup), 15},
		{"cold fig5", cold(fig5), 20},
	} {
		got := testing.AllocsPerRun(runs, tc.f)
		t.Logf("%s: %.1f allocs/request", tc.name, got)
		if got > tc.floor {
			t.Errorf("%s: %.1f allocs/request, want ≤ %.0f", tc.name, got, tc.floor)
		}
	}
}
