package ixpd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

// BenchmarkIxpdServe pins the three tiers of the serving pipeline.
// cold forces a fresh compute per request (a unique query parameter
// defeats every reuse layer), warm replays one cached query, and
// etag304 revalidates it. The cold/warm gap is the cache win the
// daemon exists for; TestWarmColdSpeedup pins its floor.
func BenchmarkIxpdServe(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		s := benchServer(b)
		h := s.Handler()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := benchGet(h, fmt.Sprintf("/v1/experiments/summary?i=%d", i), ""); code != http.StatusOK {
				b.Fatalf("code %d", code)
			}
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
