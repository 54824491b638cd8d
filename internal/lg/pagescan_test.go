package lg

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
	"ixplight/internal/rs"
)

// richFixture is a route server whose listings exercise every part of
// the wire shape: AS100 announces v4 and v6 routes with and without
// each community flavour and has filtered routes with nil, empty and
// unprintable attributes; AS200 announces nothing; AS300 is avoided by
// some of AS100's routes, so its not-exported view is not empty.
func richFixture(t testing.TB) *rs.Server {
	t.Helper()
	server, err := rs.New(rs.Config{Scheme: dictionary.ProfileByName("DE-CIX"), ScrubActions: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range []uint32{100, 200, 300} {
		if err := server.AddPeer(rs.Peer{ASN: asn, Name: "peer", AddrV4: netutil.PeerAddrV4(i + 1), IPv4: true, IPv6: true}); err != nil {
			t.Fatal(err)
		}
	}
	scheme := server.Scheme()
	accept := func(r bgp.Route) {
		t.Helper()
		if reason, err := server.Announce(100, r); err != nil || reason != rs.FilterNone {
			t.Fatalf("announce %s: %v %v", r.Prefix, reason, err)
		}
	}
	for i := 0; i < 7; i++ {
		r := bgp.Route{
			Prefix:  netutil.SyntheticV4Prefix(i),
			NextHop: netutil.PeerAddrV4(1),
			ASPath:  bgp.ASPath{100, 3320 + uint32(i%2)},
			MED:     uint32(i),
		}
		switch i % 4 {
		case 0: // nil lists
		case 1:
			r.Communities = []bgp.Community{scheme.DoNotAnnounce(300), bgp.NewCommunity(100, uint16(i))}
		case 2:
			r.Communities = []bgp.Community{} // empty, not nil
			r.ExtCommunities = []bgp.ExtendedCommunity{bgp.NewTwoOctetASExtended(bgp.ExtSubTypePrependAction, 64500, 3)}
		case 3:
			r.Communities = []bgp.Community{bgp.NewCommunity(65535, 65535)}
			r.LargeCommunities = []bgp.LargeCommunity{{Global: 4200000000, Local1: 1, Local2: uint32(i)}, {Global: 1, Local1: 0, Local2: 0}}
		}
		accept(r)
	}
	for i := 0; i < 4; i++ {
		accept(bgp.Route{
			Prefix:      netutil.SyntheticV6Prefix(i),
			NextHop:     netutil.PeerAddrV6(1),
			ASPath:      bgp.ASPath{100},
			Communities: []bgp.Community{bgp.NewCommunity(0, uint16(i))},
		})
	}
	for i, bad := range []bgp.Route{
		{Prefix: netutil.SyntheticV4Prefix(50), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{999}},                 // first-as mismatch
		{Prefix: netutil.SyntheticV4Prefix(51), NextHop: netutil.PeerAddrV4(1)},                                          // nil path
		{Prefix: netutil.SyntheticV4Prefix(52), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{}},                    // empty path
		{NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{100}},                                                        // zero prefix
		{Prefix: netutil.SyntheticV4Prefix(53), ASPath: bgp.ASPath{100}},                                                 // zero next hop
		{Prefix: netutil.SyntheticV6Prefix(54), NextHop: netip.MustParseAddr("fe80::1%e<\"0>"), ASPath: bgp.ASPath{999}}, // zone needing escapes
		{Prefix: netutil.SyntheticV4Prefix(55), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{100, 23456},
			ExtCommunities: []bgp.ExtendedCommunity{{0x03, 0x0b, 1, 2, 3, 4, 5, 6}}}, // opaque ext (hex) + bogon ASN
	} {
		if reason, _ := server.Announce(100, bad); reason == rs.FilterNone {
			t.Fatalf("bad route %d accepted", i)
		}
	}
	return server
}

// fetchBody GETs one path of a handler and returns the body.
func fetchBody(t testing.TB, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body.Bytes()
}

// checkPageAgainstOracle decodes body both ways and demands the same
// verdict, routes and paging fields.
func checkPageAgainstOracle(t testing.TB, body []byte) {
	t.Helper()
	wantRoutes, wantInfo, wantVerdict := decodePageOracle(body)
	// Decode onto a non-empty listing, as every page after the first is.
	prior := []bgp.Route{{MED: 7}}
	d := newListingDecoder()
	got, gotInfo, gotVerdict, err := decodePageScanner(d, body, prior)
	if gotVerdict != wantVerdict {
		t.Fatalf("scanner says %s (%v), encoding/json + DecodeRoute say %s\nbody: %q", gotVerdict, err, wantVerdict, body)
	}
	// What a listing's decoder carries from page to page (shared
	// attribute storage, the gateway memo) must not change what the
	// next page decodes to.
	if again, againInfo, againVerdict, _ := decodePageScanner(d, body, prior[:1:1]); againVerdict != gotVerdict || againInfo != gotInfo || !reflect.DeepEqual(again, got) {
		t.Fatalf("the same body decodes differently the second time on one decoder\nbody: %q", body)
	}
	if len(got) < 1 || !reflect.DeepEqual(got[0], prior[0]) {
		t.Fatalf("scanner disturbed the routes already listed\nbody: %q", body)
	}
	if got = got[1:]; wantVerdict != pageOK {
		if len(got) != 0 {
			t.Fatalf("scanner extended the listing by %d routes on a %s page\nbody: %q", len(got), wantVerdict, body)
		}
		return
	}
	if gotInfo != wantInfo {
		t.Fatalf("paging fields: scanner %+v, oracle %+v\nbody: %q", gotInfo, wantInfo, body)
	}
	if len(got) != len(wantRoutes) {
		t.Fatalf("scanner decoded %d routes, oracle %d\nbody: %q", len(got), len(wantRoutes), body)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], wantRoutes[i]) {
			t.Fatalf("route %d:\n scanner %#v\n oracle  %#v\nbody: %q", i, got[i], wantRoutes[i], body)
		}
	}
}

const onePageTail = `,"page":0,"page_size":500,"total_pages":1,"total_count":1}`

// handWrittenPages are bodies no well-behaved looking glass sends but
// encoding/json has an opinion on, each of which the scanner must
// share.
var handWrittenPages = []string{
	// top-level values
	`null`, ` null `, `nul`, `nulll`, `{}`, ` { } `, `[]`, `0`, `"x"`, `true`, ``, ` `, `{} x`, `{}{}`, `{`, `{"routes"`, `{"routes":`,
	// escapes in values and keys
	`{"routes":[{"network":"10.0.0.0\/24","gateway":"10.0.0.1","as_path":[1],"communities":["1\u003a2"]}]` + onePageTail,
	`{"rou\u0074es":[{"\u006eetwork":"10.0.0.0/24","gateway":"10.0.0.1"}]` + onePageTail,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","x":"\ud83d\ude00 \ud800 \udc00\ud800 \u00e9 \b\f\n\r\t\"\\"}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","x":"\q"}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","x":"\u12g4"}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","x":"\u12"}]}`,
	"{\"routes\":[{\"network\":\"10.0.0.0/24\",\"gateway\":\"10.0.0.1\",\"x\":\"a\tb\"}]}",
	"{\"routes\":[{\"network\":\"10.0.0.0/24\",\"gateway\":\"fe80::1%\xff\xfe\"}]}",
	"{\"routes\":[{\"network\":\"10.0.0.0/24\",\"gateway\":\"fe80::1%\xc3\xa9\"}]}",
	`{"routes":[{"network":"10.0.0.0/24","gateway":"fe80::1%eth0"}]}`,
	// key matching: case fold, the Kelvin sign and the long s, near misses
	`{"ROUTES":[{"NETWORK":"10.0.0.0/24","Gateway":"10.0.0.1","As_Path":[5],"COMMUNITIES":["1:2"]}],"PAGE_size":3,"Total_Count":9}`,
	"{\"routes\":[{\"networ\u212a\":\"10.0.0.0/24\",\"gateway\":\"10.0.0.1\",\"communitie\u017f\":[\"1:2\"],\"a\u017f_path\":[9]}]}",
	`{"routes":[{"network ":"10.0.0.0/24","net_work":"x","gateway":"10.0.0.1","aspath":[1]}]}`,
	"{\"routes\":[{\"network\":\"10.0.0.0/24\",\"gateway\":\"10.0.0.1\",\"network\xff\":\"x\"}]}",
	// duplicate keys: scalars, lists, list elements, routes
	`{"routes":[{"network":"banana","network":"10.0.0.0/24","gateway":"10.0.0.1","gateway":null}]}`,
	`{"routes":[{"network":"10.0.0.0/24","network":"banana","gateway":"10.0.0.1"}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":["x"],"communities":["1:2"]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":["1:2","3:4"],"communities":[],"communities":["5:6",null]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":["1:2","3:4","5:6"],"communities":["7:8"],"communities":[null,null]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":["1:2","x","5:6"],"communities":["7:8"],"communities":[null,null]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":["1:2","x","5:6"],"communities":["7:8"],"communities":[null,"9:9",null]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":["1:2","x"],"communities":["7:8"],"communities":null,"communities":[null,"9:9"]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[1,2,3],"as_path":[4],"as_path":[null,null,null,null]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[1,2,3],"as_path":[4,null],"as_path":null,"as_path":[null]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","large_communities":["1:2:3","4:5:6"],"large_communities":[null],"ext_communities":["1:2:3"],"ext_communities":[null,null]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[1]},{"network":"10.0.1.0/24","gateway":"10.0.0.2","communities":["1:1"]}],"routes":[{"as_path":[2,3]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1"},{"network":"10.0.1.0/24","gateway":"10.0.0.2"},{"network":"10.0.2.0/24","gateway":"10.0.0.3"}],"routes":[{}],"routes":[null,{"as_path":[7]},null,{"network":"10.0.3.0/24","gateway":"10.0.0.4"}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1"},{"network":"x","gateway":"10.0.0.2"}],"routes":[{}],"routes":[null,null]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1"},{"network":"x","gateway":"10.0.0.2"}],"routes":[{}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1"}],"routes":[],"routes":[null]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1"}],"routes":null,"routes":[{}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1"}],"routes":null}`,
	`{"page":1,"page":2,"page":null,"total_count":5,"total_count":6}`,
	// nulls
	`{"routes":null,"page":null,"page_size":null,"total_pages":null,"total_count":null}`,
	`{"routes":[null]}`, `{"routes":[{}]}`,
	`{"routes":[{"network":null,"gateway":null,"as_path":null,"communities":null,"ext_communities":null,"large_communities":null,"filter_reason":null}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[null,1],"communities":null,"filter_reason":"bogon-prefix"}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":[null]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[],"communities":[],"ext_communities":[],"large_communities":[]}]}`,
	// wrong types and numbers that do not fit
	`{"routes":{}}`, `{"routes":"x"}`, `{"routes":[1]}`, `{"routes":[[]]}`, `{"routes":[{"network":5}]}`, `{"routes":[{"gateway":{}}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":["1"]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[1.5]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[-1]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[-0]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[1e2]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[4294967295]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[4294967296]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[99999999999999999999999]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[01]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":{"a":1}}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":"1:2"}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":[12]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","filter_reason":7}]}`,
	`{"page":"1"}`, `{"page":1.0}`, `{"page":1e2}`, `{"page":-5,"page_size":-0,"total_pages":9223372036854775807}`, `{"total_count":9223372036854775808}`,
	`{"page":true}`, `{"page":[]}`, `{"page":-}`, `{"page":+1}`, `{"page":.5}`, `{"page":1.}`, `{"page":1e}`, `{"page":1e+}`, `{"page":0x10}`,
	// route text that does not parse (and text that surprisingly does)
	`{"routes":[{"network":"banana","gateway":"10.0.0.1"}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"banana"}]}`,
	`{"routes":[{"network":"10.0.0.0","gateway":"10.0.0.1"}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":["70000:1"]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":["007:01","0000000000000000000000065535:0"]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":["+1:2"]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":["1:2:3"]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":["1:"]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":[""]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","ext_communities":["1:2"]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","ext_communities":["256:1:1"]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","ext_communities":["255:65535:4294967295","030b010203040506"]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","large_communities":["1:2:3:4"]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","large_communities":["4294967296:0:0"]}]}`,
	`{"routes":[{"network":"::ffff:10.0.0.0/104","gateway":"::ffff:10.0.0.1"}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1"},{"network":"x","gateway":"10.0.0.1"}],"junk":}`,
	// unknown members, white space, trailing garbage
	`{"api":{"version":"2","cache":[1,2,{"a":null}],"ok":true,"no":false},"routes":[{"id":"x","age":1.5e-3,"network":"10.0.0.0/24","primary":true,"gateway":"10.0.0.1","details":{"bgp":{"med":[]}}}],"pagination":{}}`,
	" {\n\t\"routes\" : [ {\r\n \"network\" : \"10.0.0.0/24\" , \"gateway\" : \"10.0.0.1\" , \"as_path\" : [ 1 , 2 ] } ] , \"page\" : 0 }\n",
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1"}]} x`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1"},]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1",}]}`,
	`{"routes":[{"network":"10.0.0.0/24" "gateway":"10.0.0.1"}]}`,
	`{"routes":[{"network" "10.0.0.0/24"}]}`, `{"routes":[{network:"10.0.0.0/24"}]}`, `{"routes":[{"x":tru}]}`, `{"routes":[{"x":nul}]}`, `{"x":fals`,
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`,
}

// realPages returns page bodies served by a real LG over richFixture.
func realPages(t testing.TB) [][]byte {
	h := NewServer(richFixture(t))
	var pages [][]byte
	for _, path := range []string{
		"/api/v1/routeservers/rs1/neighbors/100/routes/received",
		"/api/v1/routeservers/rs1/neighbors/100/routes/received?page=1&page_size=4",
		"/api/v1/routeservers/rs1/neighbors/100/routes/filtered",
		"/api/v1/routeservers/rs1/neighbors/200/routes/received",
		"/api/v1/routeservers/rs1/neighbors/300/routes/not-exported",
	} {
		pages = append(pages, bytes.Clone(fetchBody(t, h, path)))
	}
	return pages
}

func TestScannerMatchesOracleOnHandWrittenPages(t *testing.T) {
	for _, body := range handWrittenPages {
		checkPageAgainstOracle(t, []byte(body))
	}
	for _, body := range realPages(t) {
		checkPageAgainstOracle(t, body)
	}
}

// TestScannerRejectsEveryTruncation cuts a real page at every offset:
// each cut must be the retryable bad_json (or, at the few offsets that
// leave valid JSON, whatever encoding/json makes of it).
func TestScannerRejectsEveryTruncation(t *testing.T) {
	page := realPages(t)[1]
	rejected := 0
	for cut := 0; cut < len(page); cut++ {
		checkPageAgainstOracle(t, page[:cut])
		if _, _, verdict, _ := decodePageScanner(newListingDecoder(), page[:cut], nil); verdict == pageBadJSON {
			rejected++
		}
	}
	// Only the cut that drops the trailing newline leaves the page whole.
	if rejected != len(page)-1 {
		t.Errorf("%d of %d truncations rejected as bad_json, want all but the last", rejected, len(page))
	}
}

// TestListingSharesEqualAttributes: equal attribute values of one
// listing are one slice, across pages.
func TestListingSharesEqualAttributes(t *testing.T) {
	d := newListingDecoder()
	page := func(prefix string) []byte {
		return []byte(`{"routes":[{"network":"` + prefix + `","gateway":"10.0.0.1","as_path":[1,2],"communities":["1:2","3:4"]}]}`)
	}
	routes, _, err := d.decodePage(page("10.0.0.0/24"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if routes, _, err = d.decodePage(page("10.0.1.0/24"), routes); err != nil {
		t.Fatal(err)
	}
	a, b := routes[0], routes[1]
	if &a.ASPath[0] != &b.ASPath[0] || &a.Communities[0] != &b.Communities[0] {
		t.Error("equal attribute values of one listing do not share storage")
	}
	if cap(a.Communities) != len(a.Communities) {
		t.Error("a shared slice has spare capacity an append could scribble over")
	}
}

// FuzzRoutesPageDecode: the scanner and json.Unmarshal + DecodeRoute
// agree on every body — verdict, routes and paging fields.
func FuzzRoutesPageDecode(f *testing.F) {
	pages := realPages(f)
	for _, p := range pages {
		f.Add(p)
	}
	for cut := range pages[1] {
		f.Add(pages[1][:cut])
	}
	for _, p := range handWrittenPages {
		f.Add([]byte(p))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkPageAgainstOracle(t, body)
	})
}

// TestBadRouteIsNotRetried: a page that is valid JSON but carries a
// route that does not parse fails the listing at once, as DecodeRoute's
// errors always have; malformed JSON is retried.
func TestBadRouteIsNotRetried(t *testing.T) {
	requests := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		requests++
		io.WriteString(w, `{"routes":[{"network":"banana","gateway":"10.0.0.1"}],"page":0,"page_size":1,"total_pages":1,"total_count":1}`)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, ClientOptions{MaxRetries: 3})
	_, err := c.RoutesReceived(context.Background(), 100)
	if err == nil || !strings.Contains(err.Error(), `lg: bad route "banana"`) {
		t.Fatalf("err = %v, want a bad-route error", err)
	}
	if requests != 1 {
		t.Errorf("requests = %d: a bad route was retried", requests)
	}
}

// TestScannerErrorNamesTheOffset keeps the bad_json message useful.
func TestScannerErrorNamesTheOffset(t *testing.T) {
	_, _, err := newListingDecoder().decodePage([]byte(`{"routes":[{"network":5}]}`), nil)
	if err == nil || !strings.Contains(err.Error(), "offset 22") {
		t.Errorf("err = %v, want the offset of the offending value", err)
	}
}

// routesResponseFor builds the RoutesResponse of one page the way the
// handlers did before they rendered by hand.
func routesResponseFor(routes []APIRoute, page, size int) RoutesResponse {
	lo, hi, totalPages := paginate(len(routes), page, size)
	resp := RoutesResponse{Page: page, PageSize: size, TotalPages: totalPages, TotalCount: len(routes)}
	resp.Routes = append(resp.Routes, routes[lo:hi]...)
	return resp
}

// TestRoutesPageMatchesEncodingJSON: every routes endpoint's body is
// byte-equal to encoding/json's rendering of the same RoutesResponse.
func TestRoutesPageMatchesEncodingJSON(t *testing.T) {
	server := richFixture(t)
	h := NewServer(server)
	listings := map[string]func(asn uint32) []APIRoute{
		"received": func(asn uint32) (out []APIRoute) {
			for _, r := range server.AcceptedRoutes(asn) {
				out = append(out, EncodeRoute(r))
			}
			return out
		},
		"filtered": func(asn uint32) (out []APIRoute) {
			for _, f := range server.FilteredRoutes(asn) {
				ar := EncodeRoute(f.Route)
				ar.FilterReason = f.Reason.String()
				out = append(out, ar)
			}
			return out
		},
		"not-exported": func(asn uint32) (out []APIRoute) {
			for _, r := range server.NotExportedTo(asn) {
				out = append(out, EncodeRoute(r))
			}
			return out
		},
	}
	checked, nonEmpty := 0, map[string]bool{}
	for view, listing := range listings {
		for _, asn := range []uint32{100, 200, 300} {
			all := listing(asn)
			for _, q := range []struct{ page, size int }{
				{0, 0}, {0, 1}, {0, 3}, {1, 3}, {2, 3}, {3, 3}, {4, 3}, {9, 3}, {0, 5000}, {0, 9999}, {1 << 62, 7},
			} {
				path := fmt.Sprintf("/api/v1/routeservers/rs1/neighbors/%d/routes/%s?page=%d", asn, view, q.page)
				size := DefaultPageSize
				if q.size > 0 {
					path += fmt.Sprintf("&page_size=%d", q.size)
					size = min(q.size, MaxPageSize)
				}
				var want bytes.Buffer
				resp := routesResponseFor(all, q.page, size)
				if err := json.NewEncoder(&want).Encode(resp); err != nil {
					t.Fatal(err)
				}
				if got := fetchBody(t, h, path); !bytes.Equal(got, want.Bytes()) {
					t.Errorf("GET %s:\n got  %s want %s", path, got, want.Bytes())
				}
				checked++
				if len(resp.Routes) > 0 {
					nonEmpty[view] = true
				}
			}
		}
	}
	if len(nonEmpty) != len(listings) {
		t.Errorf("only %v served a non-empty page: the fixture no longer exercises every view", nonEmpty)
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}
