package lg

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
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
// each community flavour and each scalar attribute, some of them
// avoiding member AS300; AS200
// and AS300 announce nothing; AS400 announces one route whose
// gateway's zone needs escapes and whose extended community is opaque;
// AS500, named in non-ASCII and HTML characters, announces one whose
// zone holds both, a JavaScript line separator and invalid UTF-8.
func richFixture(t testing.TB) *rs.Server {
	t.Helper()
	server, err := rs.New(rs.Config{Scheme: dictionary.ProfileByName("DE-CIX"), ScrubActions: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range []uint32{100, 200, 300, 400} {
		if err := server.AddPeer(rs.Peer{ASN: asn, Name: "peer", IPv4: true, IPv6: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := server.AddPeer(rs.Peer{ASN: 500, Name: "Zürich <Tëst & Co> “IX”", IPv4: true, IPv6: true}); err != nil {
		t.Fatal(err)
	}
	scheme := server.Scheme()
	accept := func(r bgp.Route) {
		t.Helper()
		if reason, err := server.Announce(r.PeerAS(), r); err != nil || reason != rs.FilterNone {
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
	accept(bgp.Route{Prefix: netutil.SyntheticV4Prefix(7), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{100},
		Origin: bgp.OriginIncomplete, MED: 1<<32 - 1, LocalPref: 100})
	accept(bgp.Route{Prefix: netutil.SyntheticV6Prefix(54), NextHop: netip.MustParseAddr("fe80::1%e<\"0>"), ASPath: bgp.ASPath{400},
		ExtCommunities: []bgp.ExtendedCommunity{{0x03, 0x0b, 1, 2, 3, 4, 5, 6}}})
	accept(bgp.Route{Prefix: netutil.SyntheticV6Prefix(55), ASPath: bgp.ASPath{500},
		NextHop: netip.MustParseAddr("fe80::2%Zürich<&>" + string(rune(0x2028)) + "\xff")})
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

// The three things a page body can be.
const (
	pageOK       = "ok"
	pageBadJSON  = "bad_json"  // json.Unmarshal's errors: retryable
	pageBadRoute = "bad_route" // decodeRoute's errors: fatal for the listing
)

// verdict names what a page decode's error says of the body.
func verdict(err error) string {
	var bad *errBadRoute
	switch {
	case err == nil:
		return pageOK
	case errors.As(err, &bad):
		return pageBadRoute
	}
	return pageBadJSON
}

// checkPageAgainstOracle decodes body with decodePage and with
// decodePageJSON and demands the same verdict, routes and paging fields.
func checkPageAgainstOracle(t testing.TB, body []byte) {
	t.Helper()
	wantRoutes, wantInfo, err := decodePageJSON(body, nil)
	wantVerdict := verdict(err)
	// Decode onto a non-empty listing, as every page after the first is.
	prior := []bgp.Route{{MED: 7}}
	d := newListingDecoder()
	got, gotInfo, err := d.decodePage(body, prior)
	if gotVerdict := verdict(err); gotVerdict != wantVerdict {
		t.Fatalf("decodePage says %s (%v), encoding/json + decodeRoute say %s\nbody: %q", gotVerdict, err, wantVerdict, body)
	}
	// What a listing's decoder carries from page to page (shared
	// attribute storage, the gateway memo) must not change what the
	// next page decodes to.
	if again, againInfo, againErr := d.decodePage(body, prior[:1:1]); verdict(againErr) != wantVerdict || againInfo != gotInfo || !reflect.DeepEqual(again, got) {
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

// tokensApart is a page with a tab and a CR between every two tokens.
var tokensApart = strings.Join(strings.Fields(`{ "routes" : [ { "network" : "10.0.0.0/24" , "gateway" : "10.0.0.1" , "as_path" : [ 1 , 2 ] ,
	"communities" : [ "1:2" ] , "ext_communities" : [ "1:2:3" ] , "large_communities" : [ "1:2:3" ] } ] ,
	"page" : 0 , "page_size" : 1 , "total_pages" : 1 , "total_count" : 1 }`), "\t\r")

// handWrittenPages are bodies no well-behaved looking glass sends but
// encoding/json has an opinion on, each of which decodePage must answer
// as decodePageJSON does.
var handWrittenPages = []string{
	// the edges of the scanner's shape
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":[x1:2"]}]}`,
	`{"routes":[{"Communities":[00:0"]}]}`,
	`{"page":01}`, `{"page":-0}`, `{"page":1152921504606846976,"total_count":1152921504606846977}`, `{"page":9223372036854775808}`,
	"{\"routes\":[{\"network\":\"10.0.0.0/24\",\"gateway\":\"10.0.0.1\x7f\"}]}",
	"{\"routes\":[{\"network\":\"10.0.0.0/24\x7f\",\"gateway\":\"10.0.0.1\"}]}",
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","med":5}]}`,
	// the scalar attributes: origin above 2 is a bad route, values that
	// do not fit or are not plain integers are bad JSON
	`{"routes":[{"origin":2,"local_pref":100,"med":4294967295,"network":"10.0.0.0/24","gateway":"10.0.0.1"}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","med":0,"local_pref":0,"origin":0}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","origin":3}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","origin":255}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","origin":256}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","origin":-1}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","origin":"1"}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","origin":3,"origin":1}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","med":4294967296}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","med":5,"med":null,"local_pref":null}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","local_pref":01}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","local_pref":1.5}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","local_pref":1e2}]}`,
	`{"total_count":1,"routes":[{"large_communities":["1:2:3"],"communities":["1:2"],"gateway":"10.0.0.1","as_path":[1],"network":"10.0.0.0/24"}],"page":0}`,
	`{"routes":[],"page":0,"page_size":500,"total_pages":1,"total_count":0}`,
	tokensApart,
	`{"routes":[{"network":"10.0.0.0/24","as_path":[1]}]}`, `{"routes":[{"gateway":"10.0.0.1"}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[]},{"network":"10.0.1.0/24","gateway":"10.0.0.1","as_path":null}]}`,
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
	`{"routes":[{"network":null,"gateway":null,"as_path":null,"communities":null,"ext_communities":null,"large_communities":null}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[null,1],"communities":null}]}`,
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
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","ext_communities":{}}]}`,
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
	// network text around the one spelling Prefix.AppendTo writes: other
	// spellings netip.ParsePrefix reads, and text it rejects, after a
	// page header as the LG renders one
	`{"page":0,"page_size":500,"total_pages":1,"total_count":1,"routes":[{"network":"2001:DB8::/32","gateway":"10.0.0.1"}]}`,
	`{"page":0,"page_size":500,"total_pages":1,"total_count":1,"routes":[{"network":"::ffff:10.0.0.0/104","gateway":"10.0.0.1"}]}`,
	`{"page":0,"page_size":500,"total_pages":1,"total_count":1,"routes":[{"network":"::ffff:a00:0/104","gateway":"10.0.0.1"}]}`,
	`{"page":0,"page_size":500,"total_pages":1,"total_count":1,"routes":[{"network":"10.01.0.0/16","gateway":"10.0.0.1"}]}`,
	`{"page":0,"page_size":500,"total_pages":1,"total_count":1,"routes":[{"network":"fe80::1%eth0/64","gateway":"10.0.0.1"}]}`,
	`{"page":0,"page_size":500,"total_pages":1,"total_count":1,"routes":[{"network":"10.0.0.0/08","gateway":"10.0.0.1"}]}`,
	`{"page":0,"page_size":500,"total_pages":1,"total_count":2,"routes":[{"network":"2001:db8:0:0::/32","gateway":"10.0.0.1"},{"network":"2001:0db8::/32","gateway":"10.0.0.1"}]}`,
	`{"page":0,"page_size":500,"total_pages":1,"total_count":3,"routes":[{"network":"::1.2.3.4/128","gateway":"10.0.0.1"},{"network":"1:2:3:4:5:6:7::/128","gateway":"10.0.0.1"},{"network":"1:2:3:4:5:6:1.2.3.4/96","gateway":"10.0.0.1"}]}`,
	`{"page":0,"page_size":500,"total_pages":1,"total_count":4,"routes":[{"network":"0.0.0.0/0","gateway":"10.0.0.1"},{"network":"::/0","gateway":"::1"},{"network":"1::/128","gateway":"10.0.0.1"},{"network":"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128","gateway":"10.0.0.1"}]}`,
	`{"page":0,"page_size":500,"total_pages":1,"total_count":3,"routes":[{"network":"10.0.0.0/33","gateway":"10.0.0.1"},{"network":"::/129","gateway":"10.0.0.1"},{"network":"256.0.0.0/8","gateway":"10.0.0.1"}]}`,
	`{"page":0,"page_size":500,"total_pages":1,"total_count":1,"routes":[{"network":"1.2.3.4/","gateway":"10.0.0.1"},{"network":"1.2.3/24","gateway":"10.0.0.1"},{"network":"1:2:3:4:5:6:7:8:9/128","gateway":"10.0.0.1"}]}`,
	// a header that claims more than a listing could hold, or sits on a
	// later page
	`{"page":0,"page_size":1152921504606846976,"total_pages":1,"total_count":1152921504606846976,"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[1]}]}`,
	`{"page":3,"page_size":2,"total_pages":4,"total_count":7,"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","communities":["1:2"]}]}`,
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1"},{"network":"x","gateway":"10.0.0.1"}],"junk":}`,
	// unknown members (filter_reason among them: the routes endpoint
	// no longer serves rejected routes), white space, trailing garbage
	`{"routes":[{"network":"10.0.0.0/24","gateway":"10.0.0.1","as_path":[1],"filter_reason":"bogon-prefix"}]}`,
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
		"/api/v1/routeservers/rs1/neighbors/100/routes/received?page=2&page_size=4",
		"/api/v1/routeservers/rs1/neighbors/200/routes/received",
		"/api/v1/routeservers/rs1/neighbors/400/routes/received",
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
		if _, _, err := newListingDecoder().decodePage(page[:cut], nil); verdict(err) == pageBadJSON {
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

// TestParsePrefixReadsWhatAppendToWrites: parsePrefix takes the text
// Prefix.AppendTo writes for prefixes of every family and length, and
// declines other spellings netip.ParsePrefix reads, so a page that uses
// them goes to decodePageJSON.
func TestParsePrefixReadsWhatAppendToWrites(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		var a16 [16]byte
		for k := range a16 {
			if rng.IntN(3) > 0 { // zero runs of every length, so "::" lands everywhere
				a16[k] = byte(rng.Uint32())
			}
		}
		var addr netip.Addr
		switch i % 3 {
		case 0:
			addr = netip.AddrFrom4([4]byte(a16[:4]))
		case 1:
			addr = netip.AddrFrom16(a16)
		case 2:
			addr = netip.AddrFrom16(netip.AddrFrom4([4]byte(a16[:4])).As16()) // IPv4-mapped
		}
		p := netip.PrefixFrom(addr, rng.IntN(addr.BitLen()+1))
		got, ok := parsePrefix([]byte(p.String()))
		if !ok || got != p {
			t.Fatalf("parsePrefix(%q) = %v, %v; want %v", p, got, ok, p)
		}
	}
	for _, tc := range []struct {
		text       string
		netipReads bool
	}{
		{"2001:DB8::/32", true}, {"2001:db8:0:0::/32", true}, {"2001:0db8::/32", true}, {"::1.2.3.4/128", true},
		{"::ffff:a00:0/104", true}, {"1:2:3:4:5:6:7::/128", true}, {"0:0:0:0:0:0:0:0/0", true},
		{"10.01.0.0/16", false}, {"10.0.0.0/08", false}, {"fe80::1%eth0/64", false}, {"10.0.0.0/33", false}, {"", false},
	} {
		if _, err := netip.ParsePrefix(tc.text); (err == nil) != tc.netipReads {
			t.Fatalf("netip.ParsePrefix(%q): %v", tc.text, err)
		}
		if p, ok := parsePrefix([]byte(tc.text)); ok {
			t.Errorf("parsePrefix(%q) = %v, want it declined", tc.text, p)
		}
	}
}

// FuzzParsePrefix: whatever parsePrefix accepts, netip.ParsePrefix
// reads as the same prefix, and it accepts every text AppendTo writes.
func FuzzParsePrefix(f *testing.F) {
	for _, text := range []string{"10.0.0.0/24", "::ffff:10.0.0.0/104", "2001:db8::/32", "::/0", "1::/128",
		"2001:DB8::/32", "10.01.0.0/16", "fe80::1%eth0/64", "10.0.0.0/08", "1:2:3:4:5:6:1.2.3.4/96"} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, ok := parsePrefix([]byte(text))
		want, err := netip.ParsePrefix(text)
		switch {
		case ok && (err != nil || got != want):
			t.Fatalf("parsePrefix(%q) = %v, netip.ParsePrefix says %v, %v", text, got, want, err)
		case !ok && err == nil && want.String() == text:
			t.Fatalf("parsePrefix declines %q, which AppendTo writes", text)
		}
	})
}

// TestPageScanAllocs pins the scanner's cost model: a decoder that has
// read a listing's page once reads it again, onto a listing with room,
// with no allocation per route. Before the scanner read the network
// text in place it made a string per route to hand to netip.
func TestPageScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 2000
	server, _ := fixture(t, n)
	body := fetchBody(t, NewServer(server), fmt.Sprintf("/api/v1/routeservers/rs1/neighbors/100/routes/received?page_size=%d", n))
	d := newListingDecoder()
	routes, _, err := d.decodePage(body, nil)
	if err != nil || len(routes) != n {
		t.Fatalf("decoded %d routes, %v; want %d", len(routes), err, n)
	}
	perRoute := testing.AllocsPerRun(20, func() {
		if routes, _, err = d.decodePage(body, routes[:0]); err != nil || len(routes) != n {
			t.Fatalf("decoded %d routes, %v; want %d", len(routes), err, n)
		}
	}) / n
	t.Logf("%.4f allocations per scanned route", perRoute)
	if perRoute >= 0.1 {
		t.Errorf("scanning a %d-route page allocates %.2f times per route, want < 0.1", n, perRoute)
	}
}

// FuzzRoutesPageDecode: decodePage and json.Unmarshal + decodeRoute
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
// route that does not parse — text that is no prefix, or an origin
// that is no RFC 4271 code — fails the listing at once, as
// decodeRoute's errors always have; malformed JSON is retried.
func TestBadRouteIsNotRetried(t *testing.T) {
	for _, tc := range []struct{ route, want string }{
		{`{"network":"banana","gateway":"10.0.0.1"}`, `lg: bad route "banana"`},
		{`{"network":"10.0.0.0/24","gateway":"10.0.0.1","origin":3}`, `lg: bad route "10.0.0.0/24": origin 3`},
	} {
		requests := 0
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			requests++
			io.WriteString(w, `{"routes":[`+tc.route+`],"page":0,"page_size":1,"total_pages":1,"total_count":1}`)
		}))
		c := NewClient(ts.URL, ClientOptions{MaxRetries: 3})
		_, err := c.RoutesReceived(context.Background(), 100)
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("err = %v, want a bad-route error %q", err, tc.want)
		}
		if requests != 1 {
			t.Errorf("%s: requests = %d: a bad route was retried", tc.route, requests)
		}
	}
}

// TestScannerErrorNamesTheOffset keeps the bad_json message useful: a
// syntax error names its offset, a type error the field.
func TestScannerErrorNamesTheOffset(t *testing.T) {
	_, _, err := newListingDecoder().decodePage([]byte(`{"routes":[{"network":x}]}`), nil)
	var syntax *json.SyntaxError
	if !errors.As(err, &syntax) || !strings.Contains(err.Error(), fmt.Sprintf("offset %d:", syntax.Offset)) {
		t.Errorf("err = %v, want a syntax error naming its offset", err)
	}
	_, _, err = newListingDecoder().decodePage([]byte(`{"routes":[{"network":5}]}`), nil)
	if err == nil || !strings.Contains(err.Error(), "APIRoute.routes.network") {
		t.Errorf("err = %v, want a type error naming the field", err)
	}
}

// TestScanTakesWhatTheServerRenders: the scanner itself accepts every
// page the server renders, the empty one included, so none of them
// costs the encoding/json path; it declines a page whose gateway needed
// escapes, which only that path reads.
func TestScanTakesWhatTheServerRenders(t *testing.T) {
	h := NewServer(richFixture(t))
	routes := 0
	for _, asn := range []uint32{100, 200, 300} {
		for _, size := range []int{1, 3, 500} {
			for page := 0; page < 100; page++ {
				body := fetchBody(t, h, fmt.Sprintf("/api/v1/routeservers/rs1/neighbors/%d/routes/received?page=%d&page_size=%d", asn, page, size))
				d := newListingDecoder()
				if !d.scan(body) {
					t.Fatalf("scan declines a served page: %s", body)
				}
				routes += d.info.routes
				if page >= d.info.totalPages-1 {
					break
				}
			}
		}
	}
	if routes == 0 {
		t.Fatal("the fixture served no routes")
	}
	empty := fetchBody(t, h, "/api/v1/routeservers/rs1/neighbors/200/routes/received")
	if !bytes.Contains(empty, []byte(`"routes":null`)) || !newListingDecoder().scan(empty) {
		t.Errorf("scan declines the empty page %s", empty)
	}
	escaped := fetchBody(t, h, "/api/v1/routeservers/rs1/neighbors/400/routes/received")
	if !bytes.Contains(escaped, []byte(`fe80::1%e\u003c\"0\u003e`)) {
		t.Fatalf("the fixture no longer serves the escaped zone: %s", escaped)
	}
	if newListingDecoder().scan(escaped) {
		t.Error("scan accepts a page with escapes")
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

// TestRoutesPageMatchesEncodingJSON: every routes page's body is
// byte-equal to encoding/json's rendering of the same RoutesResponse,
// and so is a route no route server accepts rendered on its own.
func TestRoutesPageMatchesEncodingJSON(t *testing.T) {
	server := richFixture(t)
	h := NewServer(server)
	checked, nonEmpty := 0, 0
	for _, asn := range []uint32{100, 200, 300, 400, 500} {
		var all []APIRoute
		for _, r := range server.AcceptedRoutes(asn) {
			all = append(all, EncodeRoute(r))
		}
		for _, q := range []struct{ page, size int }{
			{0, 0}, {0, 1}, {0, 3}, {1, 3}, {2, 3}, {3, 3}, {4, 3}, {9, 3}, {0, 5000}, {0, 9999}, {1 << 62, 7},
		} {
			path := fmt.Sprintf("/api/v1/routeservers/rs1/neighbors/%d/routes/received?page=%d", asn, q.page)
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
				nonEmpty++
			}
		}
	}
	if checked == 0 || nonEmpty == 0 {
		t.Fatalf("%d pages checked, %d with routes", checked, nonEmpty)
	}
	for _, r := range []bgp.Route{
		{NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{100}},                                     // zero prefix
		{Prefix: netutil.SyntheticV4Prefix(53), ASPath: bgp.ASPath{100}},                              // zero next hop
		{Prefix: netutil.SyntheticV4Prefix(52), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{}}, // empty path
	} {
		want, err := json.Marshal(EncodeRoute(r))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendAPIRoute(nil, &r); !bytes.Equal(got, want) {
			t.Errorf("route %v:\n got  %s\n want %s", r, got, want)
		}
	}
}
