package lg

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
	"ixplight/internal/rs"
)

// fixture spins up a route server with two peers and nRoutes routes
// announced by AS100, wrapped in an httptest LG. It takes testing.TB
// so benchmarks share it.
func fixture(t testing.TB, nRoutes int) (*rs.Server, *httptest.Server) {
	t.Helper()
	server, err := rs.New(rs.Config{
		Scheme:       dictionary.ProfileByName("DE-CIX"),
		ScrubActions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range []uint32{100, 200} {
		if err := server.AddPeer(rs.Peer{
			ASN: asn, Name: "peer", AddrV4: netutil.PeerAddrV4(i + 1),
			IPv4: true, IPv6: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	scheme := server.Scheme()
	for i := 0; i < nRoutes; i++ {
		r := bgp.Route{
			Prefix:  netutil.SyntheticV4Prefix(i),
			NextHop: netutil.PeerAddrV4(1),
			ASPath:  bgp.ASPath{100},
			Communities: []bgp.Community{
				scheme.DoNotAnnounce(6939),
				bgp.NewCommunity(100, uint16(i)),
			},
		}
		if reason, err := server.Announce(100, r); err != nil || reason != rs.FilterNone {
			t.Fatalf("announce %d: %v %v", i, reason, err)
		}
	}
	// One filtered route for the filtered endpoint.
	bad := bgp.Route{
		Prefix:  netutil.SyntheticV4Prefix(nRoutes + 1),
		NextHop: netutil.PeerAddrV4(1),
		ASPath:  bgp.ASPath{999}, // first-AS mismatch
	}
	if reason, _ := server.Announce(100, bad); reason == rs.FilterNone {
		t.Fatal("bad route accepted")
	}
	ts := httptest.NewServer(NewServer(server))
	t.Cleanup(ts.Close)
	return server, ts
}

func TestStatusEndpoint(t *testing.T) {
	_, ts := fixture(t, 1)
	c := NewClient(ts.URL, ClientOptions{})
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.IXP != "DE-CIX" || st.RSASN != 6695 {
		t.Errorf("status = %+v", st)
	}
}

func TestNeighborsEndpoint(t *testing.T) {
	_, ts := fixture(t, 3)
	c := NewClient(ts.URL, ClientOptions{})
	ns, err := c.Neighbors(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 {
		t.Fatalf("neighbors = %d", len(ns))
	}
	if ns[0].ASN != 100 || ns[0].RoutesAccepted != 3 || ns[0].RoutesFiltered != 1 {
		t.Errorf("neighbor[0] = %+v", ns[0])
	}
	if ns[1].ASN != 200 || ns[1].RoutesAccepted != 0 {
		t.Errorf("neighbor[1] = %+v", ns[1])
	}
}

func TestRoutesPagination(t *testing.T) {
	server, ts := fixture(t, 47)
	c := NewClient(ts.URL, ClientOptions{PageSize: 10})
	routes, err := c.RoutesReceived(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 47 {
		t.Fatalf("routes = %d, want 47", len(routes))
	}
	// Paginated fetch must reconstruct exactly what the RS holds.
	want := server.AcceptedRoutes(100)
	if !reflect.DeepEqual(routes, want) {
		t.Error("paginated routes differ from RS state")
	}
	// 5 pages of routes + neighbors-free direct call count.
	if c.HTTPRequests() != 5 {
		t.Errorf("http requests = %d, want 5 pages", c.HTTPRequests())
	}
	// One logical call, however many pages it took.
	if c.Requests() != 1 {
		t.Errorf("logical calls = %d, want 1", c.Requests())
	}
}

func TestRouteRoundTripThroughAPI(t *testing.T) {
	_, ts := fixture(t, 1)
	c := NewClient(ts.URL, ClientOptions{})
	routes, err := c.RoutesReceived(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	r := routes[0]
	if r.PeerAS() != 100 {
		t.Errorf("peer AS = %d", r.PeerAS())
	}
	if !bgp.HasCommunity(r.Communities, bgp.NewCommunity(0, 6939)) {
		t.Errorf("action community lost: %v", r.Communities)
	}
}

func TestFilteredCount(t *testing.T) {
	_, ts := fixture(t, 2)
	c := NewClient(ts.URL, ClientOptions{})
	n, err := c.FilteredCount(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("filtered = %d, want 1", n)
	}
}

func TestConfigEndpoint(t *testing.T) {
	_, ts := fixture(t, 1)
	c := NewClient(ts.URL, ClientOptions{})
	cfg, err := c.Config(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IXP != "DE-CIX" {
		t.Errorf("config IXP = %q", cfg.IXP)
	}
	// The RS config list is the incomplete one (§3): fewer entries than
	// the 774 full dictionary.
	if len(cfg.Communities) == 0 || len(cfg.Communities) >= 774 {
		t.Errorf("config communities = %d, want 0 < n < 774", len(cfg.Communities))
	}
}

func TestNotFoundAndBadRequests(t *testing.T) {
	_, ts := fixture(t, 1)
	for _, path := range []string{
		"/api/v1/routeservers/rs1/neighbors/999/routes/received", // no such peer
		"/api/v1/routeservers/rs1/neighbors/xyz/routes/received", // bad asn
		"/api/v1/nope",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s: got 200", path)
		}
	}
	// Client surfaces non-retryable errors immediately.
	c := NewClient(ts.URL, ClientOptions{MaxRetries: 3})
	if _, err := c.RoutesReceived(context.Background(), 999); err == nil {
		t.Error("want error for unknown neighbor")
	}
	if c.HTTPRequests() != 1 {
		t.Errorf("http requests = %d, 404 must not be retried", c.HTTPRequests())
	}
}

func TestClientRetriesFlakyServer(t *testing.T) {
	server, _ := fixture(t, 5)
	flaky := httptest.NewServer(Flaky(NewServer(server), FlakyOptions{
		ErrorRate: 0.6,
		Seed:      7,
	}))
	defer flaky.Close()

	c := NewClient(flaky.URL, ClientOptions{PageSize: 1, MaxRetries: 30})
	routes, err := c.RoutesReceived(context.Background(), 100)
	if err != nil {
		t.Fatalf("client did not survive flakiness: %v", err)
	}
	if len(routes) != 5 {
		t.Errorf("routes = %d, want 5", len(routes))
	}
	if c.HTTPRequests() <= 5 {
		t.Error("expected retries to have happened")
	}
	if c.Requests() != 1 {
		t.Errorf("logical calls = %d: retries must not count as calls", c.Requests())
	}
}

func TestClientSurvivesRateLimiting(t *testing.T) {
	server, _ := fixture(t, 30)
	limited := httptest.NewServer(Flaky(NewServer(server), FlakyOptions{
		RateLimitEvery: 3, // every third request gets 429
		Seed:           1,
	}))
	defer limited.Close()

	c := NewClient(limited.URL, ClientOptions{PageSize: 5, MaxRetries: 5})
	routes, err := c.RoutesReceived(context.Background(), 100)
	if err != nil {
		t.Fatalf("client did not survive rate limiting: %v", err)
	}
	if len(routes) != 30 {
		t.Errorf("routes = %d, want 30", len(routes))
	}
}

func TestClientGivesUpEventually(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer dead.Close()
	c := NewClient(dead.URL, ClientOptions{MaxRetries: 2})
	if _, err := c.Status(context.Background()); err == nil {
		t.Error("want error from permanently failing server")
	}
	if c.HTTPRequests() != 3 {
		t.Errorf("http requests = %d, want 3 (1 + 2 retries)", c.HTTPRequests())
	}
	if c.Requests() != 1 {
		t.Errorf("logical calls = %d, want 1", c.Requests())
	}
}

func TestClientContextCancellation(t *testing.T) {
	_, ts := fixture(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewClient(ts.URL, ClientOptions{})
	if _, err := c.Status(ctx); err == nil {
		t.Error("want context error")
	}
}

func TestDecodeRouteErrors(t *testing.T) {
	cases := []APIRoute{
		{Prefix: "not-a-prefix", NextHop: "10.0.0.1"},
		{Prefix: "1.0.0.0/24", NextHop: "nope"},
		{Prefix: "1.0.0.0/24", NextHop: "10.0.0.1", Communities: []string{"bad"}},
		{Prefix: "1.0.0.0/24", NextHop: "10.0.0.1", LargeCommunities: []string{"1:2"}},
		{Prefix: "1.0.0.0/24", NextHop: "10.0.0.1", ExtCommunities: []string{"zz"}},
	}
	for i, a := range cases {
		if _, err := DecodeRoute(a); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestEncodeDecodeRouteRoundTrip(t *testing.T) {
	in := bgp.Route{
		Prefix:  netutil.SyntheticV6Prefix(3),
		NextHop: netutil.PeerAddrV6(9),
		ASPath:  bgp.ASPath{64500, 64501},
		Communities: []bgp.Community{
			bgp.NewCommunity(0, 15169), bgp.BlackholeWellKnown,
		},
		ExtCommunities:   []bgp.ExtendedCommunity{bgp.NewTwoOctetASExtended(0x80, 64500, 99)},
		LargeCommunities: []bgp.LargeCommunity{{Global: 64500, Local1: 1, Local2: 2}},
	}
	out, err := DecodeRoute(EncodeRoute(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n in  %+v\n out %+v", in, out)
	}
}

func TestPaginateEdges(t *testing.T) {
	lo, hi, pages := paginate(0, 0, 10)
	if lo != 0 || hi != 0 || pages != 1 {
		t.Errorf("empty: %d %d %d", lo, hi, pages)
	}
	lo, hi, pages = paginate(25, 2, 10)
	if lo != 20 || hi != 25 || pages != 3 {
		t.Errorf("last page: %d %d %d", lo, hi, pages)
	}
	lo, hi, _ = paginate(25, 99, 10)
	if lo != 25 || hi != 25 {
		t.Errorf("past-end page: %d %d", lo, hi)
	}
}

func TestRoutesNotExportedEndpoint(t *testing.T) {
	server, ts := fixture(t, 3) // AS100's routes all carry 0:6939 (non-member): no effect
	scheme := server.Scheme()
	// Add a route avoiding AS200 so the not-exported view is non-empty.
	avoid := bgp.Route{
		Prefix:      netutil.SyntheticV4Prefix(50),
		NextHop:     netutil.PeerAddrV4(1),
		ASPath:      bgp.ASPath{100},
		Communities: []bgp.Community{scheme.DoNotAnnounce(200)},
	}
	if reason, err := server.Announce(100, avoid); err != nil || reason != rs.FilterNone {
		t.Fatal(reason, err)
	}
	c := NewClient(ts.URL, ClientOptions{PageSize: 2})
	withheld, err := c.RoutesNotExported(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(withheld) != 1 || withheld[0].Prefix != avoid.Prefix {
		t.Errorf("withheld = %v", withheld)
	}
	received, err := c.RoutesReceived(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(received) != 0 {
		t.Errorf("received = %d (AS200 announces nothing; it *gets* exports, not received)", len(received))
	}
}

// TestRoutesNotExportedPagesPartitionTheView is the regression test for
// paging the not-exported view: thirty members announce the same two
// prefixes and keep one of them from AS200. Every page is computed by
// its own request, so the pages only add up to the view — each withheld
// route once, none missing — if the order behind them is total. (Sorted
// by prefix alone over map order, same-prefix routes changed places
// between two page requests.)
func TestRoutesNotExportedPagesPartitionTheView(t *testing.T) {
	server, ts := fixture(t, 3)
	scheme := server.Scheme()
	for i := 0; i < 30; i++ {
		asn := uint32(300 + i)
		if err := server.AddPeer(rs.Peer{ASN: asn, Name: "peer", AddrV4: netutil.PeerAddrV4(10 + i), IPv4: true}); err != nil {
			t.Fatal(err)
		}
		for k, comms := range [][]bgp.Community{{scheme.DoNotAnnounce(200)}, nil} {
			r := bgp.Route{Prefix: netutil.SyntheticV4Prefix(60 + k), NextHop: netutil.PeerAddrV4(10 + i), ASPath: bgp.ASPath{asn}, Communities: comms}
			if reason, err := server.Announce(asn, r); err != nil || reason != rs.FilterNone {
				t.Fatal(reason, err)
			}
		}
	}
	c := NewClient(ts.URL, ClientOptions{PageSize: 4})
	for round := 0; round < 3; round++ {
		withheld, err := c.RoutesNotExported(context.Background(), 200)
		if err != nil {
			t.Fatal(err)
		}
		if len(withheld) != 30 {
			t.Fatalf("paged view has %d routes, want 30", len(withheld))
		}
		for i, r := range withheld {
			if r.PeerAS() != uint32(300+i) || r.Prefix != netutil.SyntheticV4Prefix(60) {
				t.Fatalf("route %d of the paged view is %s from AS%d, want AS%d's withheld route: pages overlap or skip", i, r.Prefix, r.PeerAS(), 300+i)
			}
		}
	}
}

func TestConfigRawEndpoint(t *testing.T) {
	_, ts := fixture(t, 1)
	c := NewClient(ts.URL, ClientOptions{MinInterval: time.Millisecond})
	text, err := c.ConfigRaw(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"define rs_asn = 6695;", "filter ixp_import", "define comm_0"} {
		if !strings.Contains(text, want) {
			t.Errorf("raw config misses %q", want)
		}
	}
	// Error paths: unreachable and non-200.
	dead := NewClient("http://127.0.0.1:1", ClientOptions{})
	if _, err := dead.ConfigRaw(context.Background()); err == nil {
		t.Error("unreachable LG: want error")
	}
	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.NotFound(w, nil)
	}))
	defer notFound.Close()
	nf := NewClient(notFound.URL, ClientOptions{})
	if _, err := nf.ConfigRaw(context.Background()); err == nil {
		t.Error("404: want error")
	}
}

func TestClientThrottleSpacing(t *testing.T) {
	_, ts := fixture(t, 1)
	c := NewClient(ts.URL, ClientOptions{MinInterval: 30 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := c.Status(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Three requests need at least two full intervals.
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("3 throttled requests took %v, want ≥ 60ms", elapsed)
	}
	// Throttle must respect context cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.throttle(ctx); err == nil {
		t.Error("cancelled throttle: want error")
	}
}
