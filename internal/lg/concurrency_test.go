package lg

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestMaxInFlightSemaphore exercises the in-flight bound directly:
// MaxInFlight slots can be held at once, the next acquire fails fast
// with ErrConcurrentUse, and releasing a slot frees it again.
func TestMaxInFlightSemaphore(t *testing.T) {
	c := NewClient("http://unused", ClientOptions{MaxInFlight: 3})
	if got := c.MaxInFlight(); got != 3 {
		t.Fatalf("MaxInFlight() = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if err := c.acquire(); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if err := c.acquire(); !errors.Is(err, ErrConcurrentUse) {
		t.Errorf("4th acquire: err = %v, want ErrConcurrentUse", err)
	}
	c.release()
	if err := c.acquire(); err != nil {
		t.Errorf("acquire after release: %v", err)
	}
}

// TestMaxInFlightAllowsConcurrentCalls fires exactly MaxInFlight
// concurrent calls at a healthy LG; with the old single-flight guard
// all but one would fail, with the semaphore all must succeed.
func TestMaxInFlightAllowsConcurrentCalls(t *testing.T) {
	_, ts := fixture(t, 1)
	const n = 8
	c := NewClient(ts.URL, ClientOptions{MaxInFlight: n})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Status(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	if c.Requests() != n {
		t.Errorf("requests = %d, want %d", c.Requests(), n)
	}
}

// TestSharedPacerSpacesConcurrentRequests checks the MinInterval
// throttle holds across goroutines: n concurrent calls through one
// client must arrive at the server spaced by the interval, so the
// whole burst spans at least (n-1) intervals. Run with -race this is
// also the regression test for the old unsynchronized lastReq.
func TestSharedPacerSpacesConcurrentRequests(t *testing.T) {
	const (
		n        = 6
		interval = 20 * time.Millisecond
	)
	var mu sync.Mutex
	var arrivals []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		mu.Unlock()
		w.Write([]byte(`{"ixp":"TEST","version":"1.0","rs_asn":1}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL, ClientOptions{MaxInFlight: n, MinInterval: interval})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Status(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(arrivals) != n {
		t.Fatalf("arrivals = %d, want %d", len(arrivals), n)
	}
	first, last := arrivals[0], arrivals[0]
	for _, a := range arrivals[1:] {
		if a.Before(first) {
			first = a
		}
		if a.After(last) {
			last = a
		}
	}
	// The pacer reserves slots interval apart; allow generous slack for
	// scheduler noise but catch the burst a broken pacer would let
	// through (span ~0 instead of ~(n-1)*interval).
	if span := last.Sub(first); span < (n-1)*interval/2 {
		t.Errorf("burst span = %v, want ≥ %v: concurrent requests not paced", span, (n-1)*interval/2)
	}
}

// TestThrottleRace hammers the pacer from many goroutines with a tiny
// interval — no assertions beyond the race detector: this is the
// -race pin for the Client.lastReq data race the pacer replaced.
func TestThrottleRace(t *testing.T) {
	_, ts := fixture(t, 1)
	const n = 16
	c := NewClient(ts.URL, ClientOptions{MaxInFlight: n, MinInterval: 100 * time.Microsecond})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if _, err := c.Status(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Requests() != n*4 {
		t.Errorf("requests = %d, want %d", c.Requests(), n*4)
	}
}

// TestDefaultStillSingleFlight pins the compatibility contract: a
// zero-options client keeps the old behaviour — one call at a time,
// concurrent entry fails with ErrConcurrentUse.
func TestDefaultStillSingleFlight(t *testing.T) {
	c := NewClient("http://unused", ClientOptions{})
	if got := c.MaxInFlight(); got != 1 {
		t.Fatalf("default MaxInFlight = %d, want 1", got)
	}
	if err := c.acquire(); err != nil {
		t.Fatal(err)
	}
	if err := c.acquire(); !errors.Is(err, ErrConcurrentUse) {
		t.Errorf("second acquire: err = %v, want ErrConcurrentUse", err)
	}
}
