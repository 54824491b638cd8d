package lg

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/netutil"
)

// TestNeighborSummaryCountsMatchListings: the summary's O(1) counts are
// the lengths of the listings, after announces, replacements,
// withdrawals (of held and of unknown prefixes) and filtered announces.
func TestNeighborSummaryCountsMatchListings(t *testing.T) {
	server, ts := fixture(t, 12) // AS100: 12 accepted, 1 filtered
	route := func(i int, firstAS uint32) bgp.Route {
		return bgp.Route{Prefix: netutil.SyntheticV4Prefix(i), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{firstAS}}
	}
	server.Withdraw(100, netutil.SyntheticV4Prefix(3))
	server.Withdraw(100, netutil.SyntheticV4Prefix(3))   // already gone
	server.Withdraw(100, netutil.SyntheticV4Prefix(999)) // never held
	server.Announce(100, route(5, 100))                  // replaces
	server.Announce(100, route(40, 100))                 // new
	server.Announce(100, route(41, 999))                 // filtered
	server.Announce(100, route(42, 999))                 // filtered
	server.Announce(200, route(43, 200))
	server.Withdraw(200, netutil.SyntheticV4Prefix(43))
	server.Announce(200, route(44, 999)) // filtered

	c := NewClient(ts.URL, ClientOptions{PageSize: 5})
	ns, err := c.Neighbors(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint32][2]int{100: {12, 3}, 200: {0, 1}}
	for _, n := range ns {
		if got := [2]int{n.RoutesAccepted, n.RoutesFiltered}; got != want[n.ASN] {
			t.Errorf("AS%d summary = %v, want %v", n.ASN, got, want[n.ASN])
		}
		routes, err := c.RoutesReceived(context.Background(), n.ASN)
		if err != nil {
			t.Fatal(err)
		}
		if len(routes) != n.RoutesAccepted || len(server.AcceptedRoutes(n.ASN)) != n.RoutesAccepted {
			t.Errorf("AS%d: summary says %d accepted, listing has %d, route server %d",
				n.ASN, n.RoutesAccepted, len(routes), len(server.AcceptedRoutes(n.ASN)))
		}
		filtered, err := c.FilteredCount(context.Background(), n.ASN)
		if err != nil {
			t.Fatal(err)
		}
		if filtered != n.RoutesFiltered || len(server.FilteredRoutes(n.ASN)) != n.RoutesFiltered {
			t.Errorf("AS%d: summary says %d filtered, count endpoint %d, route server %d",
				n.ASN, n.RoutesFiltered, filtered, len(server.FilteredRoutes(n.ASN)))
		}
		for i := 1; i < len(routes); i++ {
			if !routes[i-1].Prefix.Addr().Less(routes[i].Prefix.Addr()) {
				t.Errorf("AS%d: listing out of prefix order at %d", n.ASN, i)
			}
		}
	}
}

// TestPagesNeverTornUnderChurn reads pages while one prefix is
// withdrawn and re-announced in a loop (run it under -race). A page is
// rendered under one read lock, so its total always matches its
// content, and a paged listing either sees one total on every page —
// and is then exactly the table with or without the churning prefix —
// or fails with "total count changed mid-crawl".
func TestPagesNeverTornUnderChurn(t *testing.T) {
	const n = 40
	server, ts := fixture(t, n)
	churned := bgp.Route{Prefix: netutil.SyntheticV4Prefix(n / 2), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{100}}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			server.Withdraw(100, churned.Prefix)
			if _, err := server.Announce(100, churned); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // whole-table pages: total_count is the page's length
		defer wg.Done()
		h := NewServer(server)
		for i := 0; i < 300; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/routeservers/rs1/neighbors/100/routes/received?page_size=5000", nil))
			var resp RoutesResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Error(err)
				return
			}
			if len(resp.Routes) != resp.TotalCount || resp.TotalCount < n-1 || resp.TotalCount > n {
				t.Errorf("torn page: %d routes, total_count %d", len(resp.Routes), resp.TotalCount)
				return
			}
		}
	}()
	c := NewClient(ts.URL, ClientOptions{PageSize: 7})
	ok, midCrawl := 0, 0
	for i := 0; i < 150; i++ {
		routes, err := c.RoutesReceived(context.Background(), 100)
		if err != nil {
			if !strings.Contains(err.Error(), "total count changed mid-crawl") {
				t.Fatalf("crawl %d: %v", i, err)
			}
			midCrawl++
			continue
		}
		ok++
		seen := map[string]bool{}
		for _, r := range routes {
			seen[r.Prefix.String()] = true
		}
		if len(seen) != len(routes) || (len(routes) != n && (len(routes) != n-1 || seen[churned.Prefix.String()])) {
			t.Fatalf("crawl %d: a listing that passed the total check holds %d routes (%d distinct)", i, len(routes), len(seen))
		}
	}
	close(stop)
	<-done
	wg.Wait()
	t.Logf("%d consistent listings, %d failed mid-crawl", ok, midCrawl)
}

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// servePageAllocs measures the allocations of serving one routes page
// of the given size in-process.
func servePageAllocs(h http.Handler, size int) float64 {
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/v1/routeservers/rs1/neighbors/100/routes/received?page_size=%d", size), nil)
	w := &discardWriter{h: make(http.Header)}
	return testing.AllocsPerRun(50, func() { h.ServeHTTP(w, req) })
}

// TestServedPageAllocsIndependentOfPageSize pins the server's cost
// model: a page is rendered into a pooled buffer from the route
// server's own entries, so its allocations are those of routing and
// answering one request, whatever the page holds. (The parent's handler
// cloned, sorted and reflected over the neighbor's whole table: ~9
// allocations per route on the page plus ~3 per route held.)
func TestServedPageAllocsIndependentOfPageSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	server, _ := fixture(t, 2000)
	h := NewServer(server)
	small, large := servePageAllocs(h, 10), servePageAllocs(h, 2000)
	t.Logf("allocs per served page: %.0f at 10 routes, %.0f at 2000", small, large)
	if large > small+2 {
		t.Errorf("a 2000-route page costs %.0f allocations, a 10-route page %.0f: the cost grows with the page", large, small)
	}
	if large > 40 {
		t.Errorf("a served page costs %.0f allocations, want ≤ 40", large)
	}
}
