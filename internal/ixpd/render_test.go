package ixpd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
	"ixplight/internal/lg"
	"ixplight/internal/report"
	"ixplight/internal/rs"
)

// TestDocsMatchEncodingJSON holds every hand-rendered body to
// json.Marshal of its document plus Encode's newline, over a lab's
// whole query universe: /v1/meta (with a skipped file), the 21
// experiments, every series, sampled per-AS and per-community lookups
// with and without ?ixp=, and the error bodies — the 404s of each
// endpoint and the 400s of the two lookups, with HTML, quotes and
// non-ASCII in the names they echo, and a 500 whose message holds every
// byte class the escaper treats apart — and, rendered on their own,
// documents in shapes the lab does not reach (a partial day, nil and
// empty slices, escaped strings).
func TestDocsMatchEncodingJSON(t *testing.T) {
	dir := t.TempDir()
	profiles := ixpgen.BigFour()[:2]
	cutPath, cut := writeDeltaSeries(t, dir, profiles[0], 4, 3)
	landFile(t, cutPath, cut[:100])
	writeDeltaSeries(t, dir, profiles[1], 3, 3)
	s := New(Config{Profiles: profiles, SnapshotDir: dir, Seed: 1, Scale: 0.005, ReloadInterval: -1})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	g := s.gen.Load()
	if len(g.load.Skipped) != 1 {
		t.Fatalf("skipped %v, want the cut delta", g.load.Skipped)
	}
	h := s.Handler()

	paths := scriptPaths(t, s, profiles, report.ExperimentNames)
	for _, mi := range s.metaDoc(g).IXPs {
		paths = append(paths,
			"/v1/as/"+strconv.FormatUint(uint64(mi.SampleASNs[0]), 10)+"?ixp="+mi.IXP,
			"/v1/as/4200000000", // an AS no IXP knows: zero rows of counts
			"/v1/community/"+mi.SampleCommunities[0],
			"/v1/community/65535:666?ixp="+mi.IXP)
	}
	checked := 0
	for _, path := range paths {
		code, _, body := doGet(t, h, path, "")
		if code != http.StatusOK {
			t.Errorf("%s: code %d", path, code)
			continue
		}
		if want := wantBody(t, s, g, path); body != string(want) {
			t.Errorf("%s:\n got  %s\n want %s", path, body, want)
		}
		checked++
	}
	if checked < 21+4 {
		t.Fatalf("%d bodies checked", checked)
	}

	for _, tc := range []struct {
		path string
		code int
	}{
		{"/v1/experiments/nope", http.StatusNotFound},
		{"/v1/experiments/" + url.PathEscape(`<b>"fig1"&é`), http.StatusNotFound},
		{"/v1/as/notanumber", http.StatusBadRequest},
		{"/v1/as/" + url.PathEscape("1<2>"), http.StatusBadRequest},
		{"/v1/as/" + url.PathEscape("Zürich\"&"), http.StatusBadRequest},
		{"/v1/as/1?ixp=" + url.QueryEscape(`<script>"x"&é`), http.StatusNotFound},
		{"/v1/community/junk", http.StatusBadRequest},
		{"/v1/community/" + url.PathEscape("1:<&>"), http.StatusBadRequest},
		{"/v1/community/" + url.PathEscape("1:2é"), http.StatusBadRequest},
		{"/v1/community/0:1?ixp=BOGUS", http.StatusNotFound},
		{"/v1/series/BOGUS", http.StatusNotFound},
		{"/v1/series/" + url.PathEscape("Zürich<&>"), http.StatusNotFound},
	} {
		path := tc.path
		code, _, body := doGet(t, h, path, "")
		var doc map[string]string
		if code != tc.code || json.Unmarshal([]byte(body), &doc) != nil || len(doc) != 1 || doc["error"] == "" {
			t.Errorf("%s: %d %s, want a %d {\"error\": …}", path, code, body, tc.code)
			continue
		}
		if want := jsonBody(doc); body != string(want) {
			t.Errorf("%s:\n got  %s\n want %s", path, body, want)
		}
	}

	// Shapes the lab does not reach: a partial served day, nil and empty
	// slices, strings that need escapes.
	odd := "<Zürich & \"IX\">" + string(rune(0x2028)) + "\xff"
	for _, doc := range []interface{ appendJSON([]byte) []byte }{
		&MetaDoc{Digest: odd, Source: odd, IXPs: []MetaIXP{{IXP: odd, Tip: odd, Partial: true, MemberErrors: 3,
			SampleASNs: []uint32{}, SampleCommunities: []string{odd, ""}}}, Skipped: []SkippedFile{{File: odd, Reason: odd}}},
		&MetaDoc{Experiments: []string{}, IXPs: []MetaIXP{{MemberErrors: -1}}, Skipped: []SkippedFile{}},
		&MetaDoc{},
		&ASDoc{}, &ASDoc{ASN: 1<<32 - 1, IXPs: []ASAtIXP{}},
		&CommunityDoc{Community: odd}, &CommunityDoc{IXPs: []CommunityAtIXP{{IXP: odd, Action: odd, Target: odd}, {}}},
		&SeriesDoc{IXP: odd}, &SeriesDoc{Days: []SeriesDay{}},
	} {
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got := doc.appendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%T:\n got  %s\n want %s", doc, got, want)
		}
	}

	msg := "boom \"quoted\" \\ <tag> & \b\f\n\r\t\x00\x1f\x7f é → " + string(rune(0x2028)) + string(rune(0x2029)) + " \xff\xc3"
	for _, err := range []error{errors.New(msg), &httpError{code: http.StatusNotFound, msg: msg}} {
		rec := httptest.NewRecorder()
		s.serveCached(rec, httptest.NewRequest(http.MethodGet, "/fail", nil), "test", "/fail", func(*generation) ([]byte, error) {
			return nil, err
		})
		if want := jsonBody(map[string]string{"error": msg}); rec.Body.String() != string(want) {
			t.Errorf("%T error body:\n got  %s\n want %s", err, rec.Body.String(), want)
		}
	}
}

// wantBody is encoding/json's body for a 200 path: the document the
// endpoint's builder returns (or, for an experiment, the ExperimentDoc
// of its text), marshaled.
func wantBody(t *testing.T, s *Server, g *generation, path string) []byte {
	t.Helper()
	u, err := url.Parse(path)
	if err != nil {
		t.Fatal(err)
	}
	ixp := u.Query().Get("ixp")
	kind, arg, _ := strings.Cut(strings.TrimPrefix(u.Path, "/v1/"), "/")
	var doc any
	switch kind {
	case "meta":
		doc = s.metaDoc(g)
	case "experiments":
		var out bytes.Buffer
		err = g.lab.Run(&out, arg)
		doc = ExperimentDoc{Experiment: arg, Digest: g.digest, Output: out.String()}
	case "as":
		doc, err = s.asDoc(g, arg, ixp)
	case "community":
		doc, err = s.communityDoc(g, arg, ixp)
	case "series":
		doc, err = s.seriesDoc(g, arg)
	default:
		t.Fatalf("no document for %s", path)
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return jsonBody(doc)
}

// TestMetaFlagsPartialDay: a served day the collector wrote as partial
// — a crawl through a looking glass with one dead neighbour, under
// collect -partial, landed as the last delta of a chain — is flagged in
// /v1/meta with its count of lost neighbours. Without the flag, every
// figure of that IXP would come from a degraded day, unmarked.
func TestMetaFlagsPartialDay(t *testing.T) {
	const seed, scale = 7, 0.005
	p := ixpgen.BigFour()[0]
	w, err := ixpgen.Generate(p, ixpgen.Options{Seed: seed, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	server, err := rs.New(rs.Config{Scheme: p.Scheme, MaxPathLen: 64, ScrubActions: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(server); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := w.Snapshot("2021-10-04")
	if _, err := collector.SaveSnapshot(dir, base, collector.CodecBinary); err != nil {
		t.Fatal(err)
	}
	dead := base.Routes[0].PeerAS()
	ts := httptest.NewServer(lg.Flaky(lg.NewServer(server), lg.FlakyOptions{NeighborOutage: []uint32{dead}}))
	defer ts.Close()
	client := lg.NewClient(ts.URL, lg.ClientOptions{MaxRetries: 1, RetryBackoff: time.Millisecond})
	day, err := collector.CollectWithOptions(context.Background(), client, "2021-10-05", collector.CollectOptions{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !day.Partial || len(day.MemberErrors) != 1 || day.MemberErrors[0].ASN != dead {
		t.Fatalf("crawl: partial %v, member errors %+v; want AS%d alone", day.Partial, day.MemberErrors, dead)
	}
	if _, err := collector.Append(dir, day, t.Logf); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Profiles: []ixpgen.Profile{p}, SnapshotDir: dir, Seed: seed, Scale: scale, ReloadInterval: -1})
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	code, _, body := doGet(t, s.Handler(), "/v1/meta", "")
	var meta struct {
		IXPs []struct {
			IXP          string `json:"ixp"`
			Latest       string `json:"latest"`
			Partial      bool   `json:"partial"`
			MemberErrors int    `json:"member_errors"`
		} `json:"ixps"`
	}
	if code != http.StatusOK || json.Unmarshal([]byte(body), &meta) != nil || len(meta.IXPs) != 1 {
		t.Fatalf("/v1/meta: %d %s", code, body)
	}
	if got := meta.IXPs[0]; got.Latest != "2021-10-05" || !got.Partial || got.MemberErrors != 1 {
		t.Errorf("/v1/meta serves %s's day %s as partial %v with %d member errors; want 2021-10-05, partial, 1",
			got.IXP, got.Latest, got.Partial, got.MemberErrors)
	}
}
