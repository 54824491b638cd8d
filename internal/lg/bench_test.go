package lg

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// BenchmarkRoutesReceived measures one paged route listing through
// the client — request, retry bookkeeping, page rendering and scanning
// — against an in-process LG, so both ends' own overhead per crawled
// neighbor is visible without network latency: a two-page listing
// where the per-request cost dominates, and a ten-page one where the
// per-route cost does.
func BenchmarkRoutesReceived(b *testing.B) {
	for _, tc := range []struct{ routes, pageSize int }{{50, 25}, {5000, 500}} {
		b.Run(fmt.Sprintf("routes=%d", tc.routes), func(b *testing.B) {
			_, ts := fixture(b, tc.routes)
			c := NewClient(ts.URL, ClientOptions{PageSize: tc.pageSize})
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				routes, err := c.RoutesReceived(context.Background(), 100)
				if err != nil {
					b.Fatal(err)
				}
				if len(routes) != tc.routes {
					b.Fatalf("routes = %d, want %d", len(routes), tc.routes)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * float64(tc.routes)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/route")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/route")
		})
	}
}

// BenchmarkThrottleContended measures the shared MinInterval pacer
// under heavy goroutine contention — the hot path every request of a
// parallel crawl serialises through.
func BenchmarkThrottleContended(b *testing.B) {
	c := NewClient("http://unused", ClientOptions{
		MinInterval: time.Nanosecond, MaxInFlight: 64,
	})
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := c.throttle(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClientConcurrency compares pushing n concurrent requests
// through one client at MaxInFlight=1 vs n — the per-client cost of
// the in-flight semaphore and shared pacer as parallelism grows.
func BenchmarkClientConcurrency(b *testing.B) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"ixp":"TEST","version":"1.0","rs_asn":1}`))
	}))
	defer ts.Close()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("inflight=%d", workers), func(b *testing.B) {
			c := NewClient(ts.URL, ClientOptions{MaxInFlight: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for j := 0; j < workers; j++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := c.Status(context.Background()); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
		})
	}
}
