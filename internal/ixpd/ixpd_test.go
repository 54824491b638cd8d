package ixpd

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ixplight/internal/analysis"
	"ixplight/internal/ixpgen"
	"ixplight/internal/telemetry"
)

// testConfig fills in the small world the tests serve — the first of
// the big four at scale 0.005, seed 7, unless cfg names another — and
// writes its first day through the dataset writer into a fresh
// directory, so loading it builds one index per IXP. Polling is off.
func testConfig(tb testing.TB, cfg Config) Config {
	tb.Helper()
	if cfg.Profiles == nil {
		cfg.Profiles = ixpgen.BigFour()[:1]
	}
	if cfg.Scale == 0 {
		cfg.Scale = 0.005
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	cfg.SnapshotDir = tb.TempDir()
	for _, p := range cfg.Profiles {
		if _, err := ixpgen.WriteSeries(cfg.SnapshotDir, p, ixpgen.TemporalOptions{Seed: cfg.Seed, Scale: cfg.Scale, Days: 1}); err != nil {
			tb.Fatal(err)
		}
	}
	cfg.ReloadInterval = -1
	return cfg
}

// testServer builds and loads a server over a small written dataset
// (testConfig).
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(testConfig(t, cfg))
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	return s
}

// jsonBody is v as a compute's rendered body: json.Encoder.Encode's
// bytes.
func jsonBody(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

// doGet drives one request through the handler and returns the
// response.
func doGet(t testing.TB, h http.Handler, path, ifNoneMatch string) (code int, etag, body string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get("ETag"), rec.Body.String()
}

func TestEndpoints(t *testing.T) {
	s := testServer(t, Config{Profiles: ixpgen.BigFour()[:2]})
	h := s.Handler()

	var meta MetaDoc
	code, etag, body := doGet(t, h, "/v1/meta", "")
	if code != http.StatusOK || etag == "" {
		t.Fatalf("/v1/meta: code %d etag %q", code, etag)
	}
	if err := json.Unmarshal([]byte(body), &meta); err != nil {
		t.Fatal(err)
	}
	if len(meta.IXPs) != 2 || meta.Digest == "" || len(meta.Experiments) == 0 {
		t.Fatalf("meta: %+v", meta)
	}
	ixp := meta.IXPs[0]
	if len(ixp.SampleASNs) == 0 || len(ixp.SampleCommunities) == 0 {
		t.Fatalf("meta has no query samples: %+v", ixp)
	}
	if meta.Source != "dir" {
		t.Fatalf("source = %q, want dir", meta.Source)
	}

	code, _, body = doGet(t, h, "/v1/experiments/summary", "")
	if code != http.StatusOK || !strings.Contains(body, `"output"`) {
		t.Fatalf("experiment: code %d body %.80s", code, body)
	}
	if code, _, _ := doGet(t, h, "/v1/experiments/nonsense", ""); code != http.StatusNotFound {
		t.Fatalf("unknown experiment: code %d, want 404", code)
	}

	var asDoc ASDoc
	code, _, body = doGet(t, h, fmt.Sprintf("/v1/as/%d", ixp.SampleASNs[0]), "")
	if code != http.StatusOK {
		t.Fatalf("/v1/as: code %d", code)
	}
	if err := json.Unmarshal([]byte(body), &asDoc); err != nil {
		t.Fatal(err)
	}
	if len(asDoc.IXPs) != 2 || !asDoc.IXPs[0].Member || asDoc.IXPs[0].V4.Routes == 0 {
		t.Fatalf("as doc: %+v", asDoc)
	}
	code, _, body = doGet(t, h, fmt.Sprintf("/v1/as/%d?ixp=%s", ixp.SampleASNs[0], ixp.IXP), "")
	if code != http.StatusOK {
		t.Fatalf("/v1/as?ixp: code %d", code)
	}
	if err := json.Unmarshal([]byte(body), &asDoc); err != nil {
		t.Fatal(err)
	}
	if len(asDoc.IXPs) != 1 || asDoc.IXPs[0].IXP != ixp.IXP {
		t.Fatalf("filtered as doc: %+v", asDoc)
	}
	if code, _, _ := doGet(t, h, "/v1/as/1?ixp=BOGUS", ""); code != http.StatusNotFound {
		t.Fatalf("unknown ixp: code %d, want 404", code)
	}
	if code, _, _ := doGet(t, h, "/v1/as/notanumber", ""); code != http.StatusBadRequest {
		t.Fatalf("bad ASN: code %d, want 400", code)
	}

	var commDoc CommunityDoc
	code, _, body = doGet(t, h, "/v1/community/"+ixp.SampleCommunities[0], "")
	if code != http.StatusOK {
		t.Fatalf("/v1/community: code %d", code)
	}
	if err := json.Unmarshal([]byte(body), &commDoc); err != nil {
		t.Fatal(err)
	}
	if len(commDoc.IXPs) != 2 || !commDoc.IXPs[0].Known || commDoc.IXPs[0].V4.ActionInstances == 0 {
		t.Fatalf("community doc: %+v", commDoc)
	}
	if code, _, _ := doGet(t, h, "/v1/community/junk", ""); code != http.StatusBadRequest {
		t.Fatalf("bad community: code %d, want 400", code)
	}

	var series SeriesDoc
	code, _, body = doGet(t, h, "/v1/series/"+ixp.IXP, "")
	if code != http.StatusOK {
		t.Fatalf("/v1/series: code %d", code)
	}
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatal(err)
	}
	if len(series.Days) == 0 || series.Days[0].V4.Routes == 0 {
		t.Fatalf("series doc: %+v", series)
	}
	if code, _, _ := doGet(t, h, "/v1/series/BOGUS", ""); code != http.StatusNotFound {
		t.Fatalf("unknown series ixp: code %d, want 404", code)
	}
}

// TestMalformedLookupIsBadRequest: an ASN or community that does not
// parse is the client's mistake, a 400 {"error": …} with no ETag, told
// apart from a well-formed value the dataset knows nothing of (a 200 of
// zero counts) and from an IXP the dataset lacks (a 404).
func TestMalformedLookupIsBadRequest(t *testing.T) {
	s := testServer(t, Config{Profiles: ixpgen.BigFour()[:1]})
	h := s.Handler()
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/v1/as/notanumber", http.StatusBadRequest},
		{"/v1/as/4294967296", http.StatusBadRequest},
		{"/v1/as/-1", http.StatusBadRequest},
		{"/v1/as/notanumber?ixp=BOGUS", http.StatusBadRequest},
		{"/v1/community/junk", http.StatusBadRequest},
		{"/v1/community/70000:1", http.StatusBadRequest},
		{"/v1/community/1:2:3", http.StatusBadRequest},
		{"/v1/as/4200000000", http.StatusOK},
		{"/v1/community/65535:666", http.StatusOK},
		{"/v1/as/1?ixp=BOGUS", http.StatusNotFound},
		{"/v1/community/0:1?ixp=BOGUS", http.StatusNotFound},
	} {
		code, etag, body := doGet(t, h, tc.path, "")
		if code != tc.code {
			t.Errorf("%s: code %d, want %d (%s)", tc.path, code, tc.code, strings.TrimSpace(body))
			continue
		}
		var doc map[string]string
		if code == http.StatusBadRequest && (etag != "" || json.Unmarshal([]byte(body), &doc) != nil || len(doc) != 1 || !strings.HasPrefix(doc["error"], "bad ")) {
			t.Errorf("%s: ETag %q, body %s, want none and {\"error\":\"bad …\"}", tc.path, etag, body)
		}
	}
}

func TestETagRevalidation(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()

	code, etag, body := doGet(t, h, "/v1/experiments/summary", "")
	if code != http.StatusOK || etag == "" || body == "" {
		t.Fatalf("cold: code %d etag %q", code, etag)
	}
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("etag %q is not a quoted entity tag", etag)
	}

	// Revalidation answers 304 with no body — and, per the derived-tag
	// design, without touching compute.
	pre := s.Computes()
	code, etag2, body := doGet(t, h, "/v1/experiments/summary", etag)
	if code != http.StatusNotModified || body != "" {
		t.Fatalf("revalidation: code %d body %q", code, body)
	}
	if etag2 != etag {
		t.Fatalf("304 etag %q != original %q", etag2, etag)
	}
	if got := s.Computes(); got != pre {
		t.Fatalf("304 triggered a compute (%d -> %d)", pre, got)
	}

	// Different queries get different tags under the same dataset.
	_, other, _ := doGet(t, h, "/v1/meta", "")
	if other == etag {
		t.Fatalf("distinct queries share etag %q", etag)
	}

	// A stale tag (different dataset digest) recomputes.
	code, _, _ = doGet(t, h, "/v1/experiments/summary", `"deadbeef-0000000000000000"`)
	if code != http.StatusOK {
		t.Fatalf("stale etag: code %d, want 200", code)
	}
}

func TestEtagMatches(t *testing.T) {
	const tag = `"abc-123"`
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{tag, true},
		{`W/` + tag, true},
		{`"other", ` + tag, true},
		{"*", true},
		{`"other", *`, true},
		{`"other",W/` + tag + ` , "more"`, true},
		{`"other"`, false},
		{`"abc-12"`, false},
		{`"abc-1234"`, false},
		{`abc-123`, false},
		{`w/` + tag, false},
		{`W/W/` + tag, false},
		{`"other", "abc-124"`, false},
		{"", false},
		{" , ", false},
	} {
		if got := etagMatches(tc.header, tag); got != tc.want {
			t.Errorf("etagMatches(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

func TestCacheKeyCanonical(t *testing.T) {
	key := func(target string) string {
		k, _ := cacheKey(httptest.NewRequest(http.MethodGet, target, nil))
		return k
	}
	a, b := key("/v1/as/1?ixp=DE-CIX&fam=v6"), key("/v1/as/1?fam=v6&ixp=DE-CIX")
	if a != b {
		t.Fatalf("query order changes cache key: %q vs %q", a, b)
	}
	if c := key("/v1/as/1?ixp=AMS-IX"); a == c {
		t.Fatalf("distinct queries share cache key %q", a)
	}
}

// TestCacheKeyGolden pins keys, and the ixp parameter read off the
// same parse, to what the url.Values implementation produced: the key
// is half of every ETag, so it may not move.
func TestCacheKeyGolden(t *testing.T) {
	for _, tc := range [][3]string{
		{"/v1/as/1?b=2&a=1&a=0", "/v1/as/1?a=0&a=1&b=2", ""},
		{"/v1/as/1?ixp=B&ixp=A", "/v1/as/1?ixp=A&ixp=B", "B"},
		{"/v1/as/1?a;b=1&c=%zz&d=%41+b&&e=f=g&=x&h", "/v1/as/1?=x&d=A+b&e=f%3Dg&h=", ""},
		{"/v1/as/1%3Fa=1?x=%3F", "/v1/as/1%3Fa=1?x=%3F", ""},
		{"/v1/meta", "/v1/meta", ""},
		{"/v1/meta?", "/v1/meta", ""},
		{"/v1/meta?&&", "/v1/meta", ""},
		{"/v1/community/0:1?ixp=&ixp=Z", "/v1/community/0:1?ixp=&ixp=Z", ""},
	} {
		key, ixp := cacheKey(httptest.NewRequest(http.MethodGet, tc[0], nil))
		if key != tc[1] || ixp != tc[2] {
			t.Errorf("cacheKey(%q) = %q, ixp %q; want %q, ixp %q", tc[0], key, ixp, tc[1], tc[2])
		}
	}
}

// TestETagGolden pins ETags for fixed (digest, key) pairs, literals
// computed by the fnv.New64a + fmt.Sprintf(`"%s-%016x"`) code the
// inline hash replaced — one of them with a hash that needs its
// leading zeros.
func TestETagGolden(t *testing.T) {
	for _, tc := range [][3]string{
		{"0123456789abcdef", "/v1/meta", `"0123456789abcdef-a3a259006b2f8f39"`},
		{"0123456789abcdef", "/v1/experiments/summary", `"0123456789abcdef-79848ed2605ec067"`},
		{"0123456789abcdef", "/v1/as/15169?ixp=DE-CIX", `"0123456789abcdef-7b769fdec1201190"`},
		{"0123456789abcdef", "/v1/as/15169?ixp=DE-CIX&nonce=1", `"0123456789abcdef-5457b0f5a6d04c43"`},
		{"0123456789abcdef", "/v1/meta?nonce=330180", `"0123456789abcdef-00015c6025feee51"`},
		{"fedcba9876543210", "/v1/as/15169?ixp=DE-CIX", `"fedcba9876543210-7b769fdec1201190"`},
		{"fedcba9876543210", "", `"fedcba9876543210-cbf29ce484222325"`},
		{"", "/v1/community/0%3A15169?a=%26&a=+", `"-c710cc417678f584"`},
		{"deadbeefdeadbeef", "/v1/series/IX.br-SP?nonce=18446744073709551615", `"deadbeefdeadbeef-6502295c05fe502d"`},
	} {
		if got := (&generation{digest: tc[0]}).etagFor(tc[1]); got != tc[2] {
			t.Errorf("etagFor(digest %q, key %q) = %s, want %s", tc[0], tc[1], got, tc[2])
		}
	}
}

// TestCacheKeyInjective is the regression test for an unescaped
// canonical form: one parameter whose value spells a second parameter
// must not share a cache line or an ETag with the two-parameter query.
func TestCacheKeyInjective(t *testing.T) {
	s := testServer(t, Config{Profiles: []ixpgen.Profile{*ixpgen.ProfileByName("DE-CIX")}})
	h := s.Handler()
	const two, one = "/v1/as/15169?ixp=DE-CIX&x=1", "/v1/as/15169?ixp=DE-CIX%26x%3D1"
	code, etag, _ := doGet(t, h, two, "")
	if code != http.StatusOK {
		t.Fatalf("%s: code %d", two, code)
	}
	if code, _, body := doGet(t, h, one, ""); code != http.StatusNotFound {
		t.Fatalf("%s: code %d, want 404 for ixp=\"DE-CIX&x=1\" (body %.80s)", one, code, body)
	}
	if code, _, _ := doGet(t, h, one, etag); code == http.StatusNotModified {
		t.Fatalf("%s revalidated with the ETag of %s", one, two)
	}
}

// cacheKeyValues is the canonicaliser cacheKey replaced, kept as its
// reference: the same key built from the url.Values map of
// r.URL.Query(), and the ixp parameter read with Values.Get.
func cacheKeyValues(r *http.Request) (key, ixp string) {
	path := r.URL.Path
	if strings.ContainsAny(path, "?%") {
		path = (&url.URL{Path: path}).EscapedPath()
	}
	q := r.URL.Query()
	if len(q) == 0 {
		return path, ""
	}
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(path)
	sep := byte('?')
	for _, k := range keys {
		vals := slices.Clone(q[k])
		sort.Strings(vals)
		for _, v := range vals {
			b.WriteByte(sep)
			sep = '&'
			b.WriteString(url.QueryEscape(k))
			b.WriteByte('=')
			b.WriteString(url.QueryEscape(v))
		}
	}
	return b.String(), q.Get("ixp")
}

// FuzzCacheKey: two request URLs get the same key exactly when they
// decode to the same path and the same multiset of (key, value) pairs,
// and every URL gets the key and the ixp parameter the url.Values
// implementation gave it.
func FuzzCacheKey(f *testing.F) {
	f.Add("/v1/as/15169?ixp=DE-CIX&x=1", "/v1/as/15169?ixp=DE-CIX%26x%3D1")
	f.Add("/v1/as/1?a=1&a=2", "/v1/as/1?a=2&a=1")
	f.Add("/v1/as/1?a=1&b=2", "/v1/as/1?b=2&a=1")
	f.Add("/v1/as/1?a=", "/v1/as/1?a")
	f.Add("/v1/as/1?a=", "/v1/as/1")
	f.Add("/v1/as/1%3Fa=1", "/v1/as/1?a=1")
	f.Add("/v1/as/1%253Fa", "/v1/as/1%3Fa")
	f.Add("/v1/as/%31", "/v1/as/1")
	f.Add("/v1/as/1?a=1;b=2&c=3", "/v1/as/1?c=3")                                                                   // a segment holding ';' is dropped
	f.Add("/v1/as/1?a=%zz&b=%4&c=%", "/v1/as/1?%zz=1")                                                              // bad escapes, in values and in a key
	f.Add("/v1/as/1?a=x+y&b+c=1", "/v1/as/1?a=x%20y&b%20c=1")                                                       // '+' is a space on both sides of '='
	f.Add("/v1/as/1?&&a=1&&", "/v1/as/1?a=1")                                                                       // empty segments
	f.Add("/v1/as/1?ixp=B&ixp=A&ixp=B", "/v1/as/1?ixp=A&ixp=B&ixp=B")                                               // repeated keys: sorted in the key, first in Get
	f.Add("/v1/as/1?k=v=w", "/v1/as/1?k=v%3Dw")                                                                     // only the first '=' separates
	f.Add("/v1/as/1?=v&=", "/v1/as/1?ixp=%zz&ixp=ok")                                                               // empty keys; a dropped first ixp
	f.Add("/v1/as/1?a=1&b=2&c=3&d=4&e=5&f=6&g=7&h=8&i=9&j=10", "/v1/as/1?j=10&i=9&h=8&g=7&f=6&e=5&d=4&c=3&b=2&a=1") // past the stack array
	// decoded is the reference form of a request: the path, then the
	// parameters sorted, as values rather than as one string.
	decoded := func(raw string) (*http.Request, []string) {
		u, err := url.ParseRequestURI(raw)
		if err != nil {
			return nil, nil
		}
		var pairs []string
		for k, vals := range u.Query() {
			for _, v := range vals {
				pairs = append(pairs, strconv.Quote(k)+"="+strconv.Quote(v))
			}
		}
		sort.Strings(pairs)
		return &http.Request{URL: u}, append([]string{u.Path}, pairs...)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		ra, da := decoded(a)
		rb, db := decoded(b)
		if ra == nil || rb == nil {
			t.Skip()
		}
		ka, ia := cacheKey(ra)
		kb, ib := cacheKey(rb)
		if same := slices.Equal(da, db); (ka == kb) != same {
			t.Fatalf("%q → %q, %q → %q: same request %v", a, ka, b, kb, same)
		}
		if wantK, wantI := cacheKeyValues(ra); ka != wantK || ia != wantI {
			t.Fatalf("%q → key %q, ixp %q; the url.Values canonicaliser gives %q, %q", a, ka, ia, wantK, wantI)
		}
		if wantK, wantI := cacheKeyValues(rb); kb != wantK || ib != wantI {
			t.Fatalf("%q → key %q, ixp %q; the url.Values canonicaliser gives %q, %q", b, kb, ib, wantK, wantI)
		}
	})
}

// FuzzV1Path sends arbitrary path segments and queries under the four
// parameterised /v1 endpoints to a loaded server's mux. Whatever the
// request, the answer is one of the designed statuses — 200, 404 for a
// name, number, community or IXP that does not parse or is not served,
// and the mux's own 301 (a path it cleans) and 404 (a path no route
// matches) — never a panic or a 500, and the same request answers with
// the same status and ETag twice.
func FuzzV1Path(f *testing.F) {
	f.Add(uint8(0), "table1", "")
	f.Add(uint8(0), "nope", "ixp=DE-CIX")
	f.Add(uint8(1), "15169", "ixp=IX.br-SP")
	f.Add(uint8(1), "4294967296", "")
	f.Add(uint8(1), "-1", "ixp=")
	f.Add(uint8(2), "0:6939", "")
	f.Add(uint8(2), "65536:1", "ixp=LINX")
	f.Add(uint8(2), "1:2:3", "")
	f.Add(uint8(3), "IX.br-SP", "x=1&x=2")
	f.Add(uint8(3), "..", "")
	f.Add(uint8(3), "%zz", "%zz")
	f.Add(uint8(0), "a/b", "ixp=%20")
	s := New(testConfig(f, Config{}))
	if err := s.Load(); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	endpoints := [...]string{"/v1/experiments/", "/v1/as/", "/v1/community/", "/v1/series/"}
	designed := map[int]bool{http.StatusOK: true, http.StatusMovedPermanently: true, http.StatusBadRequest: true, http.StatusNotFound: true}
	f.Fuzz(func(t *testing.T, endpoint uint8, segment, query string) {
		target := endpoints[int(endpoint)%len(endpoints)] + segment
		if query != "" {
			target += "?" + query
		}
		req, err := http.NewRequest(http.MethodGet, target, nil)
		if err != nil {
			t.Skip() // not a request line a client could send
		}
		serve := func() (int, string) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req.Clone(req.Context()))
			return rec.Code, rec.Header().Get("ETag")
		}
		code, etag := serve()
		if !designed[code] {
			t.Fatalf("GET %q: status %d", target, code)
		}
		if code2, etag2 := serve(); code2 != code || etag2 != etag {
			t.Fatalf("GET %q twice: %d %q, then %d %q", target, code, etag, code2, etag2)
		}
	})
}

func TestReadinessGating(t *testing.T) {
	s := New(testConfig(t, Config{}))
	h := s.Handler()
	if code, _, _ := doGet(t, h, "/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz before load: %d", code)
	}
	if code, _, body := doGet(t, h, "/readyz", ""); code != http.StatusServiceUnavailable || !strings.Contains(body, "loading") {
		t.Fatalf("readyz before load: %d %q", code, body)
	}
	if code, _, _ := doGet(t, h, "/v1/meta", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("API before load: %d, want 503", code)
	}
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	if code, _, body := doGet(t, h, "/readyz", ""); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("readyz after load: %d %q", code, body)
	}
}

// TestCoalescing is the acceptance contract: N concurrent identical
// cold requests trigger exactly one response computation between them
// — the flight map is the tree's one coalescing mechanism — and no
// classified-index build: the load built the generation's one index,
// and no request builds another.
func TestCoalescing(t *testing.T) {
	reg := telemetry.New()
	analysis.SetTelemetry(reg)
	defer analysis.SetTelemetry(nil)

	s := testServer(t, Config{Telemetry: reg})
	h := s.Handler()
	indexBuilds := func() (builds int64) {
		for name, n := range reg.Snapshot() {
			if strings.HasPrefix(name, "ixplight_analysis_index_builds_total") {
				builds += n
			}
		}
		return builds
	}
	if got := indexBuilds(); got != 1 {
		t.Fatalf("loading one generated IXP built %d indexes, want 1", got)
	}

	const n = 16
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		mu    sync.Mutex
	)
	codes := make(map[int]int)
	bodies := make(map[string]int)
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			code, _, body := doGet(t, h, "/v1/as/64500?ixp="+s.cfg.Profiles[0].IXP, "")
			mu.Lock()
			codes[code]++
			bodies[body]++
			mu.Unlock()
		}()
	}
	start.Done()
	done.Wait()

	if codes[http.StatusOK] != n {
		t.Fatalf("statuses: %v, want %d× 200", codes, n)
	}
	if len(bodies) != 1 {
		t.Fatalf("%d distinct bodies for identical requests", len(bodies))
	}
	if got := s.Computes(); got != 1 {
		t.Fatalf("%d computes for %d identical concurrent requests, want 1", got, n)
	}
	if got := indexBuilds(); got != 1 {
		t.Fatalf("%d index builds after the requests, want the load's 1 and no more", got)
	}
	var followers int64
	for name, n := range reg.Snapshot() {
		if name == "ixplight_ixpd_coalesced_total" || name == "ixplight_ixpd_cache_hits_total" {
			followers += n
		}
	}
	if followers != n-1 {
		t.Fatalf("coalesced+cache-hit = %d, want %d", followers, n-1)
	}
}

// TestJoinLeaderCoalescedHit: a key's requesters meet its one flight
// in the generation's table, each under one lock — the first leads, the
// next joins it in progress, and one arriving after it finished gets
// that same flight as a hit. Cache and flight being one table, there is
// no window between them in which a late requester becomes a second
// leader.
func TestJoinLeaderCoalescedHit(t *testing.T) {
	s := testServer(t, Config{})
	gen := s.gen.Load()
	fl, hit, leader := gen.responses.join("/q")
	if hit || !leader {
		t.Fatal("first requester does not lead a new flight")
	}
	if again, hit, leader := gen.responses.join("/q"); hit || leader || again != fl {
		t.Fatal("second requester did not join the flight in progress")
	}
	s.runFlight(gen, "/q", fl, func(*generation) ([]byte, error) { return jsonBody(map[string]int{"n": 1}), nil })
	late, hit, leader := gen.responses.join("/q")
	if !hit || leader || late != fl {
		t.Fatalf("a requester arriving after the flight finished: hit %v, leader %v, same flight %v; want a hit on it", hit, leader, late == fl)
	}
	if late.status != http.StatusOK || string(late.data) != `{"n":1}`+"\n" || s.Computes() != 1 {
		t.Fatalf("late requester got %d %q after %d computes, want the one compute's 200", late.status, late.data, s.Computes())
	}
}

// TestAdmissionTimeout: with every admission slot taken, a compute
// flight resolves 503 without ever running its computation.
func TestAdmissionTimeout(t *testing.T) {
	s := testServer(t, Config{MaxInFlight: 1, RequestTimeout: 30 * time.Millisecond})
	s.sem <- struct{}{} // occupy the only slot
	defer func() { <-s.sem }()

	gen := s.gen.Load()
	fl, _, _ := gen.responses.join("/test")
	s.runFlight(gen, "/test", fl, func(*generation) ([]byte, error) {
		t.Error("compute ran despite admission timeout")
		return nil, nil
	})
	<-fl.done
	if fl.status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", fl.status)
	}
	if s.Computes() != 0 {
		t.Fatalf("compute counted despite rejection")
	}
	if _, _, leader := gen.responses.join("/test"); !leader {
		t.Fatal("a rejected flight stayed in the table")
	}
}

// TestAdmissionContended: a flight that finds every slot taken waits,
// and runs its compute once a slot frees up inside the timeout.
func TestAdmissionContended(t *testing.T) {
	s := testServer(t, Config{MaxInFlight: 1, RequestTimeout: time.Minute})
	s.sem <- struct{}{} // occupy the only slot
	time.AfterFunc(10*time.Millisecond, func() { <-s.sem })

	gen := s.gen.Load()
	fl, _, _ := gen.responses.join("/test")
	s.runFlight(gen, "/test", fl, func(*generation) ([]byte, error) {
		return jsonBody(map[string]string{"ok": "true"}), nil
	})
	<-fl.done
	if fl.status != http.StatusOK || s.Computes() != 1 {
		t.Fatalf("status %d, computes %d; want 200 after one compute", fl.status, s.Computes())
	}
	if len(s.sem) != 0 {
		t.Fatalf("admission slot not released: %d held", len(s.sem))
	}
}

// liveHeap is HeapAlloc once the collector stops finding garbage.
func liveHeap() uint64 {
	var m runtime.MemStats
	prev := uint64(math.MaxUint64)
	for i := 0; i < 6; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc >= prev {
			break
		}
		prev = m.HeapAlloc
	}
	return min(prev, m.HeapAlloc)
}

// TestColdRequestsHoldNoTimers: uncontended cold requests must leave
// nothing on the heap once answered, though each arms a timer to bound
// its wait and the request timeout is far off: whatever a request
// allocates — its flight, its timer, its compute — is garbage once the
// response is written, apart from the bounded response table. Anything
// a request left reachable until its timeout, such as a timer a
// registry kept, would cost some 200–300 B a request, 2–3 MB over this
// burst.
func TestColdRequestsHoldNoTimers(t *testing.T) {
	s := testServer(t, Config{RequestTimeout: time.Minute})
	h := s.Handler()
	var meta MetaDoc
	_, _, body := doGet(t, h, "/v1/meta", "")
	if err := json.Unmarshal([]byte(body), &meta); err != nil {
		t.Fatal(err)
	}
	asn := meta.IXPs[0].SampleASNs[0]

	const n = 10_000
	nonce := 0
	burst := func() {
		for i := 0; i < n; i++ {
			nonce++
			req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/as/%d?nonce=%d", asn, nonce), nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("cold request %d: code %d", i, rec.Code)
			}
		}
	}
	burst() // fills the response cache to its bound, so the cache cancels out
	before := liveHeap()
	computes := s.Computes()
	burst()
	after := liveHeap()
	if got := s.Computes() - computes; got != n {
		t.Fatalf("%d computes for %d cold requests", got, n)
	}
	if grown := int64(after) - int64(before); grown > 64*n {
		t.Fatalf("live heap grew %d B over %d cold requests (%.0f B/request): a request leaves something reachable",
			grown, n, float64(grown)/n)
	}
}

// TestWaiterTimeout: a request whose coalesced flight outlives the
// request timeout is answered 504; the detached compute still finishes
// and fills the cache for the next requester.
func TestWaiterTimeout(t *testing.T) {
	s := testServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	release := make(chan struct{})
	req := httptest.NewRequest(http.MethodGet, "/slow", nil)
	rec := httptest.NewRecorder()
	s.serveCached(rec, req, "test", "/slow", func(*generation) ([]byte, error) {
		<-release
		return jsonBody(map[string]string{"ok": "true"}), nil
	})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("code %d, want 504", rec.Code)
	}
	close(release)

	// The flight completes detached and lands in the cache.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := s.gen.Load().responses.cached("/slow"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detached compute never filled the cache")
		}
		time.Sleep(time.Millisecond)
	}
}

// cached returns the body key's finished flight holds in t, if any.
func (t *respTable) cached(key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fl, ok := t.flights[key]; ok && fl.held {
		return fl.data, true
	}
	return nil, false
}

// TestRespTableBound: the table holds the bodies of its newest cap
// successful flights, whatever the number of finishes — the key ring
// wraps more than twice here — and evicts strictly in the order flights
// finished; a failed flight leaves the table and takes no slot, so the
// next request for its key leads a new one.
func TestRespTableBound(t *testing.T) {
	const capacity, keys = 3, 14
	tab := newRespTable(capacity)
	var ok []int // the successful keys, in finish order
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		fl, _, leader := tab.join(key)
		if !leader {
			t.Fatalf("%s: a new key did not lead a flight", key)
		}
		fl.status, fl.data = http.StatusOK, []byte{byte(i)}
		if i%3 == 2 {
			fl.status = http.StatusInternalServerError
		} else {
			ok = append(ok, i)
		}
		tab.finish(key, fl)
		close(fl.done)
		held := ok[max(0, len(ok)-capacity):]
		if len(tab.flights) != len(held) || len(tab.ring) != len(held) {
			t.Fatalf("after %d finishes: %d flights, %d ring keys; want %d", i+1, len(tab.flights), len(tab.ring), len(held))
		}
		for k := 0; k <= i; k++ {
			data, hit := tab.cached(fmt.Sprintf("k%d", k))
			if want := slices.Contains(held, k); hit != want || (hit && data[0] != byte(k)) {
				t.Fatalf("after %d finishes: k%d held = %v (body %v), want %v", i+1, k, hit, data, want)
			}
		}
	}
	if len(tab.ring) != capacity || cap(tab.ring) > 2*capacity {
		t.Fatalf("key ring holds %d keys in %d slots after %d finishes, want %d fixed", len(tab.ring), cap(tab.ring), len(ok), capacity)
	}
	if _, hit, leader := tab.join("k2"); hit || !leader {
		t.Fatal("the key of a failed flight did not lead a new one")
	}
}

// TestRespTableStress drives one generation's table from 8 goroutines
// over 32 keys, each compute failing at random (seeded) and otherwise
// returning its own sequence number, then asks for every key once more
// with computes that succeed. Every 200 carries a successful compute of
// its own key, a failure never outlives its flight, and the table never
// holds more finished flights than CacheCap. With room for every key, a
// key computes once per failure and once for the 200 that stays:
// computes equal successful keys plus failures. Run under -race.
func TestRespTableStress(t *testing.T) {
	const workers, keys, requests = 8, 32, 300
	for _, capacity := range []int{keys, keys / 4} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			s := testServer(t, Config{CacheCap: capacity, MaxInFlight: 4})
			gen := s.gen.Load()
			var (
				mu        sync.Mutex
				succeeded = map[string][]int{} // key → the sequence numbers its successful computes returned
				failures  int
				seq       int
			)
			// get requests key with a compute that fails or not and
			// reports the status it was answered with.
			get := func(key string, fail bool) int {
				rec := httptest.NewRecorder()
				s.serveCached(rec, httptest.NewRequest(http.MethodGet, key, nil), "test", key, func(*generation) ([]byte, error) {
					mu.Lock()
					defer mu.Unlock()
					if fail {
						failures++
						return nil, fmt.Errorf("%s failed", key)
					}
					seq++
					succeeded[key] = append(succeeded[key], seq)
					return jsonBody(map[string]any{"key": key, "n": seq}), nil
				})
				if rec.Code == http.StatusOK {
					var doc struct {
						Key string
						N   int
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
						t.Errorf("%s: body %q: %v", key, rec.Body, err)
					}
					mu.Lock()
					ours := slices.Contains(succeeded[key], doc.N)
					mu.Unlock()
					if doc.Key != key || !ours {
						t.Errorf("%s answered with %q, not a successful compute of its own", key, rec.Body)
					}
				}
				if held := heldFlights(gen.responses); held > capacity {
					t.Errorf("the table holds %d finished flights, over CacheCap %d", held, capacity)
				}
				return rec.Code
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(rng *rand.Rand) {
					defer wg.Done()
					for i := 0; i < requests; i++ {
						key := fmt.Sprintf("/k%d", rng.Intn(keys))
						if code := get(key, rng.Intn(4) == 0); code != http.StatusOK && code != http.StatusInternalServerError {
							t.Errorf("%s: code %d", key, code)
						}
					}
				}(rand.New(rand.NewSource(int64(w + 1))))
			}
			wg.Wait()
			for k := 0; k < keys; k++ {
				if key := fmt.Sprintf("/k%d", k); get(key, false) != http.StatusOK {
					t.Errorf("%s: a failure outlived its flight", key)
				}
			}
			successes := 0
			for _, seqs := range succeeded {
				successes += len(seqs)
			}
			if got := s.Computes(); got != int64(successes+failures) {
				t.Errorf("%d computes, but %d succeeded and %d failed", got, successes, failures)
			}
			if capacity >= keys && successes != keys {
				t.Errorf("%d successful computes over %d keys: a cached key computed again", successes, keys)
			}
			if failures == 0 {
				t.Error("no compute failed: the script exercises only the cache")
			}
			if held := heldFlights(gen.responses); held != len(gen.responses.ring) || held != capacity {
				t.Errorf("%d finished flights held, %d keys in the ring; want CacheCap %d", held, len(gen.responses.ring), capacity)
			}
		})
	}
}

// heldFlights counts the finished flights t holds.
func heldFlights(t *respTable) (n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, fl := range t.flights {
		if fl.held {
			n++
		}
	}
	return n
}

// TestComputePanicContained: a compute that panics costs its requesters
// a 500 and nothing else. The leader and every coalesced waiter are
// answered, nothing is cached, the admission slot and the flight are
// released, the panic is counted and logged with its stack, and the
// next identical request computes afresh: the key left the generation's
// table.
func TestComputePanicContained(t *testing.T) {
	reg := telemetry.New()
	sink := &telemetry.RecordingSink{}
	reg.SetSpanSink(sink)
	var logMu sync.Mutex
	var logged []string
	s := testServer(t, Config{Telemetry: reg, MaxInFlight: 1, Logf: func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}})

	const n = 8
	release := make(chan struct{})
	compute := func(*generation) ([]byte, error) {
		<-release
		panic("experiment blew up")
	}
	codes := make(chan int, n)
	bodies := make(chan string, n)
	for i := 0; i < n; i++ {
		go func() {
			rec := httptest.NewRecorder()
			s.serveCached(rec, httptest.NewRequest(http.MethodGet, "/boom", nil), "test", "/boom", compute)
			codes <- rec.Code
			bodies <- rec.Body.String()
		}()
	}
	// Let every requester join the one flight before it blows up.
	deadline := time.Now().Add(5 * time.Second)
	for s.met.coalesced.Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests coalesced", s.met.coalesced.Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusInternalServerError {
			t.Errorf("requester %d: code %d, want 500", i, code)
		}
		var doc map[string]string
		if body := <-bodies; json.Unmarshal([]byte(body), &doc) != nil || !strings.Contains(doc["error"], "experiment blew up") {
			t.Errorf("requester %d: body %q is not a JSON error naming the panic", i, body)
		}
	}
	if got := s.Computes(); got != 1 {
		t.Errorf("%d computes for %d coalesced requests, want 1", got, n)
	}
	if got := s.met.computePanics.Value(); got != 1 {
		t.Errorf("ixplight_ixpd_compute_panics_total = %d, want 1", got)
	}
	tab := s.gen.Load().responses
	tab.mu.Lock()
	_, inTable := tab.flights["/boom"]
	tab.mu.Unlock()
	if inTable || len(s.sem) != 0 {
		t.Errorf("after the panic: key in the table %v, %d admission slots held; want false and 0", inTable, len(s.sem))
	}
	logMu.Lock()
	var line string
	for _, l := range logged {
		if strings.Contains(l, "panicked") {
			line = l
		}
	}
	logMu.Unlock()
	if !strings.Contains(line, "experiment blew up") || !strings.Contains(line, "runFlight") {
		t.Errorf("log line %q does not carry the panic and its stack", line)
	}
	spans := sink.Named("ixpd.compute")
	if len(spans) != 1 {
		t.Fatalf("%d ixpd.compute spans, want 1", len(spans))
	}
	rec := telemetry.Record(spans[0])
	if rec.Attr("error") != "experiment blew up" || !strings.Contains(rec.Attr("stack"), "runFlight") {
		t.Errorf("ixpd.compute span attributes: error %q, stack %d bytes", rec.Attr("error"), len(rec.Attr("stack")))
	}

	// The next identical request takes a fresh flight and computes.
	rec2 := httptest.NewRecorder()
	s.serveCached(rec2, httptest.NewRequest(http.MethodGet, "/boom", nil), "test", "/boom", func(*generation) ([]byte, error) {
		return jsonBody(map[string]string{"ok": "true"}), nil
	})
	if rec2.Code != http.StatusOK || s.Computes() != 2 {
		t.Errorf("request after the panic: code %d, %d computes; want 200 after a second compute", rec2.Code, s.Computes())
	}
}
