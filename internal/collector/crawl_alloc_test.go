package collector_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"ixplight/internal/collector"
	"ixplight/internal/lg"
)

// TestCrawlAllocsPerRoute pins the collection path's allocation
// budget on the reference table (16 neighbors, ~6.3 k routes, ~20
// communities a route): one whole crawl — LG handlers, HTTP both ways,
// page scanning, assembly, all in this process — may allocate at most
// 15 times per route. Before the pages were rendered and scanned by
// hand it was 105: an APIRoute and a string per community on each side
// of the wire, a deep copy of the neighbor's table per page.
func TestCrawlAllocsPerRoute(t *testing.T) {
	server, routes := ribFixture(t)
	ts := httptest.NewServer(lg.NewServer(server))
	defer ts.Close()
	transport := &http.Transport{MaxIdleConns: 4, MaxIdleConnsPerHost: 4}
	defer transport.CloseIdleConnections()
	crawl := func() {
		client := lg.NewClient(ts.URL, lg.ClientOptions{MaxInFlight: 2, HTTPClient: &http.Client{Transport: transport}})
		snap, err := collector.CollectWithOptions(context.Background(), client, "2021-10-04", collector.CollectOptions{NeighborParallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Routes) != routes {
			t.Fatalf("crawled %d routes, the route server holds %d", len(snap.Routes), routes)
		}
	}
	perRoute := testing.AllocsPerRun(5, crawl) / float64(routes)
	t.Logf("%.2f allocations per crawled route (%d routes)", perRoute, routes)
	if perRoute > 15 {
		t.Errorf("a crawl allocates %.1f times per route, want ≤ 15", perRoute)
	}
}
