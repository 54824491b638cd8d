package lg

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFlaky429CarriesRetryAfter checks the rate-limit injection
// advertises Retry-After the way real alice-lg deployments do.
func TestFlaky429CarriesRetryAfter(t *testing.T) {
	server, _ := fixture(t, 1)
	limited := httptest.NewServer(Flaky(NewServer(server), FlakyOptions{
		RateLimitEvery: 1, // every request
		RetryAfter:     3 * time.Second,
	}))
	defer limited.Close()
	resp, err := http.Get(limited.URL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
}

// TestClientHonorsRetryAfter verifies a 429's Retry-After dominates
// the (tiny) backoff, capped at MaxRetryAfter.
func TestClientHonorsRetryAfter(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "1") // one full second
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"ixp":"TEST","version":"1.0","rs_asn":1}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL, ClientOptions{
		MaxRetries:    2,
		RetryBackoff:  time.Millisecond, // jittered backoff would be ~1-2ms
		MaxRetryAfter: 80 * time.Millisecond,
	})
	start := time.Now()
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.IXP != "TEST" {
		t.Errorf("ixp = %q", st.IXP)
	}
	elapsed := time.Since(start)
	if elapsed < 60*time.Millisecond {
		t.Errorf("elapsed = %v: Retry-After not honoured (backoff alone is ~1ms)", elapsed)
	}
	if elapsed > 600*time.Millisecond {
		t.Errorf("elapsed = %v: MaxRetryAfter cap not applied (server asked for 1s)", elapsed)
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Errorf("seconds: %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Errorf("empty: %v", d)
	}
	if d := parseRetryAfter("-5"); d != 0 {
		t.Errorf("negative: %v", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Errorf("garbage: %v", d)
	}
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= 0 || d > 10*time.Second {
		t.Errorf("http-date: %v", d)
	}
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Errorf("past http-date: %v", d)
	}
}

// TestRequestTimeoutRecoversHungResponse: every second request hangs
// until the client hangs up; the per-request timeout must cut it off
// and the retry must succeed.
func TestRequestTimeoutRecoversHungResponse(t *testing.T) {
	server, _ := fixture(t, 3)
	hung := httptest.NewServer(Flaky(NewServer(server), FlakyOptions{HangEvery: 2}))
	defer hung.Close()

	c := NewClient(hung.URL, ClientOptions{
		MaxRetries:     3,
		RetryBackoff:   time.Millisecond,
		RequestTimeout: 50 * time.Millisecond,
	})
	start := time.Now()
	for i := 0; i < 3; i++ { // requests 2 and 4 hang
		if _, err := c.Status(context.Background()); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("took %v: hung responses not cut off", elapsed)
	}
}

// TestTruncatedBodyIsRetried: a body cut off mid-JSON must be treated
// as transient, not fatal.
func TestTruncatedBodyIsRetried(t *testing.T) {
	server, _ := fixture(t, 5)
	cut := httptest.NewServer(Flaky(NewServer(server), FlakyOptions{TruncateEvery: 2}))
	defer cut.Close()

	c := NewClient(cut.URL, ClientOptions{MaxRetries: 4, RetryBackoff: time.Millisecond})
	for i := 0; i < 4; i++ {
		ns, err := c.Neighbors(context.Background())
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(ns) != 2 {
			t.Fatalf("call %d: neighbors = %d", i, len(ns))
		}
	}
	if c.HTTPRequests() <= 4 {
		t.Errorf("http requests = %d: truncated responses were apparently never retried", c.HTTPRequests())
	}
}

// TestPaginationShrinkageDetected: a RIB that shrinks between pages
// must surface as an explicit inconsistency error, not as a silently
// short route listing.
func TestPaginationShrinkageDetected(t *testing.T) {
	server, _ := fixture(t, 20)
	churn := httptest.NewServer(Flaky(NewServer(server), FlakyOptions{ShrinkAfter: 1}))
	defer churn.Close()

	c := NewClient(churn.URL, ClientOptions{PageSize: 5})
	_, err := c.RoutesReceived(context.Background(), 100)
	if err == nil {
		t.Fatal("want inconsistency error")
	}
	if !strings.Contains(err.Error(), "changed mid-crawl") {
		t.Errorf("error = %v, want mid-crawl inconsistency", err)
	}
}

// TestShortListingFails: a listing whose last page leaves fewer routes
// than its declared total_count is a failed listing, not a short
// success — the collector retries the neighbour rather than record it
// complete with routes missing.
func TestShortListingFails(t *testing.T) {
	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, RoutesResponse{
			Routes: []APIRoute{
				{Prefix: "10.0.0.0/24", NextHop: "10.0.0.1", ASPath: []uint32{100}},
				{Prefix: "10.0.1.0/24", NextHop: "10.0.0.1", ASPath: []uint32{100}},
			},
			Page: 0, PageSize: 500, TotalPages: 1, TotalCount: 3,
		})
	}))
	defer short.Close()

	routes, err := NewClient(short.URL, ClientOptions{}).RoutesReceived(context.Background(), 100)
	if err == nil {
		t.Fatalf("a listing of %d routes declaring 3 succeeded", len(routes))
	}
	if !strings.Contains(err.Error(), "2 routes for a declared total of 3") {
		t.Errorf("error = %v", err)
	}
}

// TestRoutesPagedCapsRunawayPagination: a server whose TotalPages
// keeps growing must not drag the client into an unbounded crawl.
func TestRoutesPagedCapsRunawayPagination(t *testing.T) {
	requests := 0
	mal := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		page := requests - 1
		writeJSON(w, RoutesResponse{
			Routes: []APIRoute{{
				Prefix:  fmt.Sprintf("10.0.%d.0/24", page%250),
				NextHop: "10.0.0.1",
				ASPath:  []uint32{100},
			}},
			Page: page, PageSize: 1,
			TotalPages: page + 2, // always one more page
			TotalCount: 3,
		})
	}))
	defer mal.Close()

	c := NewClient(mal.URL, ClientOptions{})
	_, err := c.RoutesReceived(context.Background(), 100)
	if err == nil {
		t.Fatal("want pagination-cap error")
	}
	if !strings.Contains(err.Error(), "pagination ran past") {
		t.Errorf("error = %v", err)
	}
	// 3 declared routes at page size 1 = at most 3 pages fetched.
	if requests > 3 {
		t.Errorf("requests = %d, want ≤ 3", requests)
	}
}

// TestNeighborOutageIsPermanent: the injected per-neighbor outage
// must exhaust retries while other neighbors stay crawlable.
func TestNeighborOutageIsPermanent(t *testing.T) {
	server, _ := fixture(t, 4)
	out := httptest.NewServer(Flaky(NewServer(server), FlakyOptions{NeighborOutage: []uint32{100}}))
	defer out.Close()

	c := NewClient(out.URL, ClientOptions{MaxRetries: 2, RetryBackoff: time.Millisecond})
	if _, err := c.RoutesReceived(context.Background(), 100); err == nil {
		t.Error("outage neighbor: want error")
	}
	if c.HTTPRequests() != 3 {
		t.Errorf("http requests = %d, want 3 (permanent 500 exhausts retries)", c.HTTPRequests())
	}
	if _, err := c.Neighbors(context.Background()); err != nil {
		t.Errorf("other endpoints must stay up: %v", err)
	}
}

// TestFlakyLatencyInjected: every response is delayed.
func TestFlakyLatencyInjected(t *testing.T) {
	server, _ := fixture(t, 1)
	slow := httptest.NewServer(Flaky(NewServer(server), FlakyOptions{Latency: 30 * time.Millisecond}))
	defer slow.Close()

	c := NewClient(slow.URL, ClientOptions{})
	start := time.Now()
	if _, err := c.Status(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("elapsed = %v, want ≥ 30ms of injected latency", elapsed)
	}
}

// TestConcurrentUseGuard: entering the client while a call is in
// flight must fail loudly with ErrConcurrentUse — the documented
// single-goroutine (single LG connection) contract.
func TestConcurrentUseGuard(t *testing.T) {
	_, ts := fixture(t, 1)
	c := NewClient(ts.URL, ClientOptions{})
	if err := c.acquire(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Status(context.Background()); !errors.Is(err, ErrConcurrentUse) {
		t.Errorf("busy client: err = %v, want ErrConcurrentUse", err)
	}
	c.release()
	if _, err := c.Status(context.Background()); err != nil {
		t.Errorf("released client must work again: %v", err)
	}
}

// TestConcurrentUseUnderRace hammers one client from many goroutines.
// Run with -race: the request counter and busy guard are atomic, so
// misuse is reported as ErrConcurrentUse rather than a data race.
func TestConcurrentUseUnderRace(t *testing.T) {
	_, ts := fixture(t, 1)
	c := NewClient(ts.URL, ClientOptions{})
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Status(context.Background())
		}(i)
	}
	wg.Wait()
	ok := 0
	for i, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrConcurrentUse):
		default:
			t.Errorf("call %d: unexpected error %v", i, err)
		}
	}
	if ok == 0 {
		t.Error("no call succeeded")
	}
}
