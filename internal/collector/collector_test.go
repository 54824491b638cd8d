package collector

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/lg"
	"ixplight/internal/netutil"
	"ixplight/internal/rs"
)

func sampleSnapshot() *Snapshot {
	s := &Snapshot{
		IXP:  "DE-CIX",
		Date: "2021-10-04",
		Members: []Member{
			{ASN: 200, Name: "b", IPv4: true},
			{ASN: 100, Name: "a", IPv4: true, IPv6: true},
		},
		Routes: []bgp.Route{
			{
				Prefix:  netutil.SyntheticV6Prefix(0),
				NextHop: netutil.PeerAddrV6(1),
				ASPath:  bgp.ASPath{100},
			},
			{
				Prefix:      netutil.SyntheticV4Prefix(1),
				NextHop:     netutil.PeerAddrV4(1),
				ASPath:      bgp.ASPath{100, 555},
				Communities: []bgp.Community{bgp.MustParseCommunity("0:15169")},
				ExtCommunities: []bgp.ExtendedCommunity{
					bgp.NewTwoOctetASExtended(6, 6695, 9),
				},
				LargeCommunities: []bgp.LargeCommunity{{Global: 6695, Local1: 1, Local2: 2}},
			},
			{
				Prefix:  netutil.SyntheticV4Prefix(0),
				NextHop: netutil.PeerAddrV4(2),
				ASPath:  bgp.ASPath{200},
			},
		},
		FilteredCount: 3,
	}
	s.Normalize()
	return s
}

func TestNormalizeOrders(t *testing.T) {
	s := sampleSnapshot()
	if s.Members[0].ASN != 100 {
		t.Error("members not sorted")
	}
	// v4 before v6, then by prefix.
	if s.Routes[0].IsIPv6() {
		t.Error("v6 route before v4")
	}
	if !s.Routes[0].Prefix.Addr().Less(s.Routes[1].Prefix.Addr()) {
		t.Error("v4 routes not sorted by prefix")
	}
}

func TestSnapshotAccessors(t *testing.T) {
	s := sampleSnapshot()
	if s.MembersV4() != 2 || s.MembersV6() != 1 {
		t.Errorf("members = %d/%d", s.MembersV4(), s.MembersV6())
	}
	set := s.MemberSet()
	if !set[100] || !set[200] || set[300] {
		t.Errorf("member set = %v", set)
	}
	if len(s.RoutesFamily(false)) != 2 || len(s.RoutesFamily(true)) != 1 {
		t.Error("family filter wrong")
	}
	day, err := s.Day()
	if err != nil || day.Year() != 2021 {
		t.Errorf("day = %v %v", day, err)
	}
}

func TestAllCodecsRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	t.Run(CodecBinary.String(), func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, s, CodecBinary); err != nil {
			t.Fatal(err)
		}
		got, err := decodeBinarySnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Errorf("round trip mismatch:\n in  %+v\n out %+v", s, got)
		}
	})
}

func TestSaveLoadSnapshotFiles(t *testing.T) {
	s := sampleSnapshot()
	dir := t.TempDir()
	path, err := SaveSnapshot(dir, s, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Ext(path) != ".bin" {
		t.Errorf("path %q does not end in .bin", path)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Error("file round trip mismatch")
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Errorf("dir entries = %d (%v): a save must leave nothing but the snapshot", len(entries), err)
	}
}

func TestSanitizeName(t *testing.T) {
	if got := sanitizeName("IX.br-SP"); got != "IX.br-SP" {
		t.Errorf("clean name mangled: %q", got)
	}
	if got := sanitizeName("DE-CIX Mad"); got != "DE-CIX_Mad" {
		t.Errorf("space not replaced: %q", got)
	}
}

// TestDatasetPath: an IXP name is outside input (a looking glass's
// status answer, a custom profile). Whatever it holds, the file of
// every kind lands directly in dir, and all kinds spell the name alike.
func TestDatasetPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	for ixp, stem := range map[string]string{
		"DE-CIX":     "DE-CIX",
		"IX.br-SP":   "IX.br-SP",
		"A B":        "A_B",
		"../../x":    "_._.._x",
		".hidden":    "_hidden",
		"a/b\\c":     "a_b_c",
		"/etc/x":     "_etc_x",
		"x\x00y\nz":  "x_y_z",
		"DE-CIX Mad": "DE-CIX_Mad",
	} {
		for _, ext := range []string{CodecBinary.Ext(), DeltaExt, MRTExt} {
			got := DatasetPath(dir, &Snapshot{IXP: ixp, Date: "2021-10-04"}, ext)
			if want := filepath.Join(dir, stem+"-2021-10-04"+ext); got != want || filepath.Dir(got) != dir {
				t.Errorf("DatasetPath(%q, %s) = %q, want %q", ixp, ext, got, want)
			}
		}
	}
}

func TestUnknownCodecErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sampleSnapshot(), Codec(99)); err == nil {
		t.Error("unknown codec write accepted")
	}
	if _, err := SaveSnapshot(t.TempDir(), sampleSnapshot(), Codec(99)); err == nil {
		t.Error("unknown codec save accepted")
	}
}

// TestCollectFromLookingGlass exercises the full §3 pipeline: RS →
// LG API → client crawl → snapshot.
func TestCollectFromLookingGlass(t *testing.T) {
	scheme := dictionary.ProfileByName("DE-CIX")
	server, err := rs.New(rs.Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	for i, asn := range []uint32{100, 200} {
		if err := server.AddPeer(rs.Peer{ASN: asn, Name: "peer", AddrV4: netutil.PeerAddrV4(i + 1), IPv4: true, IPv6: true}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		r := bgp.Route{
			Prefix:      netutil.SyntheticV4Prefix(i),
			NextHop:     netutil.PeerAddrV4(1),
			ASPath:      bgp.ASPath{100},
			Communities: []bgp.Community{scheme.DoNotAnnounce(6939)},
		}
		if reason, err := server.Announce(100, r); err != nil || reason != rs.FilterNone {
			t.Fatal(reason, err)
		}
	}
	// One filtered route.
	bad := bgp.Route{Prefix: netutil.SyntheticV4Prefix(99), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{777}}
	if reason, _ := server.Announce(100, bad); reason == rs.FilterNone {
		t.Fatal("bad route accepted")
	}

	ts := httptest.NewServer(lg.NewServer(server))
	defer ts.Close()
	client := lg.NewClient(ts.URL, lg.ClientOptions{PageSize: 7})

	snap, err := Collect(context.Background(), client, "2021-10-04")
	if err != nil {
		t.Fatal(err)
	}
	if snap.IXP != "DE-CIX" || snap.Date != "2021-10-04" {
		t.Errorf("snapshot identity = %s/%s", snap.IXP, snap.Date)
	}
	if len(snap.Members) != 2 {
		t.Errorf("members = %d", len(snap.Members))
	}
	if len(snap.Routes) != 25 {
		t.Errorf("routes = %d", len(snap.Routes))
	}
	if snap.FilteredCount != 1 {
		t.Errorf("filtered = %d", snap.FilteredCount)
	}
	// Action communities survive collection (the LG property the whole
	// paper depends on).
	found := false
	for _, r := range snap.Routes {
		if bgp.HasCommunity(r.Communities, scheme.DoNotAnnounce(6939)) {
			found = true
		}
	}
	if !found {
		t.Error("action community lost in collection")
	}
}

func TestCollectPropagatesClientErrors(t *testing.T) {
	client := lg.NewClient("http://127.0.0.1:1", lg.ClientOptions{})
	if _, err := Collect(context.Background(), client, "2021-10-04"); err == nil {
		t.Error("want error from unreachable LG")
	}
}

// TestFetchDictionaryOverLG reproduces the §3 dictionary construction
// over the wire: RS config via LG ∪ website docs = the full per-IXP
// dictionary.
func TestFetchDictionaryOverLG(t *testing.T) {
	scheme := dictionary.ProfileByName("DE-CIX")
	server, err := rs.New(rs.Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lg.NewServer(server))
	defer ts.Close()
	client := lg.NewClient(ts.URL, lg.ClientOptions{})

	dict, err := FetchDictionary(context.Background(), client, scheme.WebsiteEntries())
	if err != nil {
		t.Fatal(err)
	}
	if dict.Size() != 774 {
		t.Errorf("dictionary size = %d, want 774", dict.Size())
	}
	if dict.IXP() != "DE-CIX" {
		t.Errorf("dictionary IXP = %q", dict.IXP())
	}
	// Without the website half the dictionary is short (the paper's
	// "this list could be incomplete" discovery).
	partial, err := FetchDictionary(context.Background(), client, nil)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Size() >= dict.Size() {
		t.Errorf("RS-config-only dictionary (%d) should be smaller than the union (%d)",
			partial.Size(), dict.Size())
	}
}

// TestCollectAllMultiIXP crawls three LGs concurrently, one of which
// is down; the other two must still succeed.
func TestCollectAllMultiIXP(t *testing.T) {
	var targets []Target
	for i, ixp := range []string{"DE-CIX", "AMS-IX"} {
		scheme := dictionary.ProfileByName(ixp)
		server, err := rs.New(rs.Config{Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		if err := server.AddPeer(rs.Peer{ASN: 100, Name: "m", AddrV4: netutil.PeerAddrV4(1), IPv4: true}); err != nil {
			t.Fatal(err)
		}
		r := bgp.Route{
			Prefix:  netutil.SyntheticV4Prefix(i),
			NextHop: netutil.PeerAddrV4(1),
			ASPath:  bgp.ASPath{100},
		}
		if reason, err := server.Announce(100, r); err != nil || reason != rs.FilterNone {
			t.Fatal(reason, err)
		}
		ts := httptest.NewServer(lg.NewServer(server))
		t.Cleanup(ts.Close)
		targets = append(targets, Target{Name: ixp, URL: ts.URL})
	}
	// A dead LG in the middle.
	targets = append(targets[:1], append([]Target{{Name: "DEAD", URL: "http://127.0.0.1:1"}}, targets[1:]...)...)

	results := CollectAll(context.Background(), targets, "2021-10-04")
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy targets failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("dead target succeeded")
	}
	// One result per target, in target order.
	if results[0].Snapshot.IXP != "DE-CIX" || results[2].Snapshot.IXP != "AMS-IX" {
		t.Errorf("order = %s, %s", results[0].Snapshot.IXP, results[2].Snapshot.IXP)
	}
}

func TestCollectAllCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := CollectAll(ctx, []Target{{Name: "X", URL: "http://127.0.0.1:1"}}, "2021-10-04")
	if results[0].Err == nil {
		t.Error("cancelled collection succeeded")
	}
}
