package lg

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/netutil"
	"ixplight/internal/telemetry"
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
		if _, filtered := server.RouteCounts(n.ASN); filtered != n.RoutesFiltered {
			t.Errorf("AS%d: summary says %d filtered, route server counts %d", n.ASN, n.RoutesFiltered, filtered)
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
// content, and a paged listing either sees one version on every page —
// and is then exactly the table with or without the churning prefix —
// or fails with "changed mid-crawl" once its restarts run out.
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
			if !strings.Contains(err.Error(), "changed mid-crawl") {
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

// churnBeforePage1 wraps h: once, when page 1 of a routes listing is
// asked for, it applies churn to the live route server before serving
// it — deterministically between two page requests of one listing.
func churnBeforePage1(h http.Handler, churn func()) http.Handler {
	done := false
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !done && strings.Contains(r.URL.Path, "/routes/") && r.URL.Query().Get("page") == "1" {
			done = true
			churn()
		}
		h.ServeHTTP(w, r)
	})
}

// TestListingIsOneTableUnderChurn: AS100 holds 12 routes, read at page
// size 5; after page 0, 1.0.0.0/24 is withdrawn and 1.0.100.0/24
// announced — one withdrawal answered by one announcement, the series'
// churn model, which leaves the total unchanged. The listing must be
// the table at one instant: before the churn or after it, never pages
// of both (which held the withdrawn route and the new one and lacked
// 1.0.5.0/24, present throughout). The client counts the one restart
// the churn forces.
func TestListingIsOneTableUnderChurn(t *testing.T) {
	server, _ := fixture(t, 12)
	gone := netutil.SyntheticV4Prefix(0)
	fresh := bgp.Route{Prefix: netutil.SyntheticV4Prefix(100), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{100}}
	var before []bgp.Route
	ts := httptest.NewServer(churnBeforePage1(NewServer(server), func() {
		before = server.AcceptedRoutes(100)
		server.Withdraw(100, gone)
		if _, err := server.Announce(100, fresh); err != nil {
			t.Error(err)
		}
	}))
	defer ts.Close()

	m := NewMetrics(telemetry.New())
	c := NewClient(ts.URL, ClientOptions{PageSize: 5, Metrics: m})
	routes, err := c.RoutesReceived(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.restarts.Value(); n != 1 {
		t.Errorf("listing restarts counted %d, want 1", n)
	}
	prefixes := func(list []bgp.Route) []string {
		out := make([]string, len(list))
		for i, r := range list {
			out[i] = r.Prefix.String()
		}
		return out
	}
	got, after := prefixes(routes), prefixes(server.AcceptedRoutes(100))
	if !slices.Equal(got, prefixes(before)) && !slices.Equal(got, after) {
		t.Fatalf("listing is no table the route server held:\n got    %v\n before %v\n after  %v", got, prefixes(before), after)
	}
}

// TestListingETags: every page of a multi-page listing carries the
// route server's version as one strong ETag; a one-page listing
// carries none; and a version that keeps moving under a listing ends
// it, after a bounded number of restarts, with the mid-crawl error.
func TestListingETags(t *testing.T) {
	server, _ := fixture(t, 12)
	h := NewServer(server)
	etag := func(query string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/routeservers/rs1/neighbors/100/routes/received?"+query, nil))
		return rec.Header().Get("ETag")
	}
	first := etag("page=0&page_size=5")
	if first == "" || first[0] != '"' || etag("page=2&page_size=5") != first {
		t.Errorf("multi-page listing ETags %q, %q: want one strong ETag on every page", first, etag("page=2&page_size=5"))
	}
	if e := etag("page=0&page_size=12"); e != "" {
		t.Errorf("one-page listing carries ETag %q", e)
	}
	server.Withdraw(100, netutil.SyntheticV4Prefix(0))
	if etag("page=0&page_size=5") == first {
		t.Error("a withdrawal left the ETag unchanged")
	}

	pages := 0
	moving := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pages++
		h.ServeHTTP(w, r)
		server.Withdraw(100, netutil.SyntheticV4Prefix(1))
		server.Announce(100, bgp.Route{Prefix: netutil.SyntheticV4Prefix(1), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{100}})
	})
	ts := httptest.NewServer(moving)
	defer ts.Close()
	_, err := NewClient(ts.URL, ClientOptions{PageSize: 5}).RoutesReceived(context.Background(), 100)
	if err == nil || !strings.Contains(err.Error(), "changed mid-crawl") {
		t.Fatalf("err = %v, want the mid-crawl error", err)
	}
	if want := 2 * (listingRestarts + 1); pages != want {
		t.Errorf("%d page requests, want %d: two per attempt", pages, want)
	}
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
