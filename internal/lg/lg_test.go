package lg

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
	"ixplight/internal/rs"
	"ixplight/internal/rsconfig"
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
	for _, asn := range []uint32{100, 200} {
		if err := server.AddPeer(rs.Peer{ASN: asn, Name: "peer", IPv4: true, IPv6: true}); err != nil {
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
	// One rejected route, which the neighbor summary counts.
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

// TestFilteredCount: a neighbor's routes_filtered, read through the
// neighbor summary, is the route server's count of rejected
// announcements. Every rejection counts, so a re-sent invalid route
// counts twice, and a rejected re-announcement counts once and also
// withdraws the accepted route it follows.
func TestFilteredCount(t *testing.T) {
	server, ts := fixture(t, 2) // AS100: 2 accepted, 1 rejected
	invalid := bgp.Route{Prefix: netutil.SyntheticV4Prefix(10), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{999}}
	looping := bgp.Route{Prefix: netutil.SyntheticV4Prefix(0), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{100, 200, 100}}
	for _, r := range []bgp.Route{invalid, invalid, looping} {
		if reason, err := server.Announce(100, r); err != nil || reason == rs.FilterNone {
			t.Fatalf("announce %s %v: %v %v, want a rejection", r.Prefix, r.ASPath, reason, err)
		}
	}
	ns, err := NewClient(ts.URL, ClientOptions{}).Neighbors(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint32][2]int{100: {1, 4}, 200: {0, 0}}
	for _, n := range ns {
		if got := [2]int{n.RoutesAccepted, n.RoutesFiltered}; got != want[n.ASN] {
			t.Errorf("AS%d summary = %v accepted/filtered, want %v", n.ASN, got, want[n.ASN])
		}
		if accepted, filtered := server.RouteCounts(n.ASN); [2]int{accepted, filtered} != want[n.ASN] {
			t.Errorf("AS%d: route server counts %d accepted, %d filtered, want %v", n.ASN, accepted, filtered, want[n.ASN])
		}
	}
	if len(ns) != len(want) {
		t.Errorf("%d neighbors, want %d", len(ns), len(want))
	}
}

func TestConfigEndpoint(t *testing.T) {
	_, ts := fixture(t, 1)
	c := NewClient(ts.URL, ClientOptions{})
	text, err := c.ConfigRaw(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "# ixplight route server configuration — DE-CIX") {
		t.Errorf("config does not name DE-CIX:\n%s", text)
	}
	// The RS config list is the incomplete one (§3): fewer entries than
	// the 774 full dictionary.
	defs, err := rsconfig.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) == 0 || len(defs) >= 774 {
		t.Errorf("config communities = %d, want 0 < n < 774", len(defs))
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
		if _, err := decodeRoute(a); err == nil {
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
	out, err := decodeRoute(EncodeRoute(in))
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

// TestConfigRawRetries: the config fetch goes through the same retry
// loop as every other endpoint, so one 503 does not fail a dictionary
// fetch.
func TestConfigRawRetries(t *testing.T) {
	server, _ := fixture(t, 1)
	lgHandler := NewServer(server)
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		lgHandler.ServeHTTP(w, r)
	}))
	defer flaky.Close()
	c := NewClient(flaky.URL, ClientOptions{MaxRetries: 2, RetryBackoff: time.Millisecond})
	text, err := c.ConfigRaw(context.Background())
	if err != nil {
		t.Fatalf("config/raw after one 503: %v", err)
	}
	if !strings.Contains(text, "define rs_asn = 6695;") {
		t.Errorf("retried config misses the rs_asn define:\n%s", text)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("%d requests, want 2 (one 503, one 200)", n)
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
