package rs

import (
	"net/netip"
	"strings"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
)

func testServer(t *testing.T, ixp string) *Server {
	t.Helper()
	s, err := New(Config{
		Scheme:       dictionary.ProfileByName(ixp),
		MaxPathLen:   32,
		ScrubActions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func addPeer(t *testing.T, s *Server, asn uint32) {
	t.Helper()
	err := s.AddPeer(Peer{
		ASN:  asn,
		IPv4: true,
		IPv6: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func route(peer uint32, idx int, comms ...bgp.Community) bgp.Route {
	return bgp.Route{
		Prefix:      netutil.SyntheticV4Prefix(idx),
		NextHop:     netutil.PeerAddrV4(int(peer % 1000)),
		ASPath:      bgp.ASPath{peer},
		Communities: comms,
	}
}

func announceOK(t *testing.T, s *Server, peer uint32, r bgp.Route) {
	t.Helper()
	reason, err := s.Announce(peer, r)
	if err != nil {
		t.Fatal(err)
	}
	if reason != FilterNone {
		t.Fatalf("route %s rejected: %v", r.Prefix, reason)
	}
}

func TestNewRequiresScheme(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without scheme must fail")
	}
}

func TestAddPeerValidation(t *testing.T) {
	s := testServer(t, "DE-CIX")
	if err := s.AddPeer(Peer{ASN: 0, IPv4: true}); err == nil {
		t.Error("zero ASN accepted")
	}
	if err := s.AddPeer(Peer{ASN: 1}); err == nil {
		t.Error("peer without families accepted")
	}
}

func TestAnnounceRequiresSession(t *testing.T) {
	s := testServer(t, "DE-CIX")
	if _, err := s.Announce(64999, route(64999, 0)); err == nil {
		t.Error("announce without session accepted")
	}
}

// TestLoadFailsBeforeStoring: a peer AddPeer refuses fails a load
// before anything changes; a route from a peer without a session fails
// it before any route is stored, the load's peers added.
func TestLoadFailsBeforeStoring(t *testing.T) {
	s := testServer(t, "DE-CIX")
	addPeer(t, s, 100)
	table := []bgp.Route{route(100, 0), route(200, 1)}
	if _, err := s.Load([]Peer{{ASN: 200, IPv4: true}, {ASN: 300}}, table); err == nil {
		t.Error("a load with a peer without families succeeded")
	}
	if s.HasPeer(200) {
		t.Error("a refused load added a peer")
	}
	if _, err := s.Load(nil, table); err == nil || !strings.Contains(err.Error(), "AS200 has no session") {
		t.Errorf("a route from a peer without a session: %v", err)
	}
	if _, err := s.Load([]Peer{{ASN: 300, IPv4: true}}, table); err == nil {
		t.Error("a load with a route from a peer without a session succeeded")
	}
	if n, _ := s.RouteCounts(100); n != 0 || !s.HasPeer(300) {
		t.Errorf("a failed load stored %d routes (AS300 added: %v), want none and the peer added", n, s.HasPeer(300))
	}
	if _, v := s.VisitAccepted(100, 0, 0, nil); v != 0 {
		t.Errorf("a failed load moved AS100 to version %d", v)
	}
}

func TestImportFilters(t *testing.T) {
	s := testServer(t, "DE-CIX")
	addPeer(t, s, 100)

	cases := []struct {
		name string
		r    bgp.Route
		want FilterReason
	}{
		{"accepted", route(100, 0), FilterNone},
		{"invalid", bgp.Route{}, FilterInvalidRoute},
		{"first-as mismatch", bgp.Route{
			Prefix: netutil.SyntheticV4Prefix(1), NextHop: netutil.PeerAddrV4(1),
			ASPath: bgp.ASPath{200},
		}, FilterFirstASMismatch},
		{"bogon prefix", bgp.Route{
			Prefix: netip.MustParsePrefix("10.1.0.0/16"), NextHop: netutil.PeerAddrV4(1),
			ASPath: bgp.ASPath{100},
		}, FilterBogonPrefix},
		{"bogon asn", bgp.Route{
			Prefix: netutil.SyntheticV4Prefix(2), NextHop: netutil.PeerAddrV4(1),
			ASPath: bgp.ASPath{100, 23456, 300},
		}, FilterBogonASN},
		{"path loop", bgp.Route{
			Prefix: netutil.SyntheticV4Prefix(3), NextHop: netutil.PeerAddrV4(1),
			ASPath: bgp.ASPath{100, 200, 100},
		}, FilterPathLoop},
		{"too specific", bgp.Route{
			Prefix: netip.MustParsePrefix("1.1.1.128/25"), NextHop: netutil.PeerAddrV4(1),
			ASPath: bgp.ASPath{100},
		}, FilterPrefixBounds},
	}
	for _, tt := range cases {
		reason, err := s.Announce(100, tt.r)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if reason != tt.want {
			t.Errorf("%s: reason = %v, want %v", tt.name, reason, tt.want)
		}
	}

	long := bgp.Route{
		Prefix: netutil.SyntheticV4Prefix(4), NextHop: netutil.PeerAddrV4(1),
		ASPath: make(bgp.ASPath, 0, 40),
	}
	long.ASPath = append(long.ASPath, 100)
	for i := 0; i < 39; i++ {
		long.ASPath = append(long.ASPath, uint32(1000+i))
	}
	if reason, _ := s.Announce(100, long); reason != FilterPathTooLong {
		t.Errorf("long path reason = %v", reason)
	}

	if _, got := s.RouteCounts(100); got != 7 {
		t.Errorf("filtered count = %d, want 7", got)
	}
	if got := len(s.AcceptedRoutes(100)); got != 1 {
		t.Errorf("accepted = %d, want 1", got)
	}
}

func TestBlackholeHostRouteBypassesBounds(t *testing.T) {
	s := testServer(t, "DE-CIX") // supports blackholing
	addPeer(t, s, 100)
	bh := bgp.Route{
		Prefix:      netip.MustParsePrefix("1.2.3.4/32"),
		NextHop:     netutil.PeerAddrV4(1),
		ASPath:      bgp.ASPath{100},
		Communities: []bgp.Community{bgp.BlackholeWellKnown},
	}
	if reason, _ := s.Announce(100, bh); reason != FilterNone {
		t.Errorf("blackhole /32 rejected: %v", reason)
	}

	// At LINX (no blackhole support) the same route must be filtered.
	linx := testServer(t, "LINX")
	addPeer(t, linx, 100)
	if reason, _ := linx.Announce(100, bh); reason != FilterPrefixBounds {
		t.Errorf("LINX blackhole /32 reason = %v, want prefix bounds", reason)
	}
}

func TestReannounceReplaces(t *testing.T) {
	s := testServer(t, "DE-CIX")
	addPeer(t, s, 100)
	announceOK(t, s, 100, route(100, 0))
	r2 := route(100, 0)
	r2.ASPath = bgp.ASPath{100, 555}
	announceOK(t, s, 100, r2)
	got := s.AcceptedRoutes(100)
	if len(got) != 1 {
		t.Fatalf("routes = %d, want 1", len(got))
	}
	if got[0].ASPath.Len() != 2 {
		t.Errorf("replacement did not take: path %v", got[0].ASPath)
	}
}

// TestRejectedReannouncementReplaces: a later advertisement for the
// same NLRI replaces the earlier one (RFC 4271 §3.1), so a
// re-announcement the import policy rejects takes the held route out —
// of the peer's listing and of every export — and is listed as
// filtered. Another peer's route for the prefix stays.
func TestRejectedReannouncementReplaces(t *testing.T) {
	s, _ := exportFixture(t)
	announceOK(t, s, 100, route(100, 0))
	announceOK(t, s, 300, route(300, 0))
	looped := route(100, 0)
	looped.ASPath = bgp.ASPath{100, 3356, 100}
	if reason, err := s.Announce(100, looped); err != nil || reason != FilterPathLoop {
		t.Fatalf("looping re-announcement: %v %v, want %v", reason, err, FilterPathLoop)
	}
	if got := s.AcceptedRoutes(100); len(got) != 0 {
		t.Errorf("AS100 still holds %v after a rejected re-announcement", got)
	}
	if a, f := s.RouteCounts(100); a != 0 || f != 1 {
		t.Errorf("AS100 RouteCounts = %d accepted, %d filtered; want 0, 1", a, f)
	}
	if got := s.ExportTo(200); len(got) != 1 || got[0].PeerAS() != 300 {
		t.Errorf("AS200 receives %v, want AS300's route alone", got)
	}
	if got := s.AcceptedRoutes(300); len(got) != 1 {
		t.Errorf("AS300 lost its route for the prefix: %v", got)
	}
}

func TestWithdraw(t *testing.T) {
	s := testServer(t, "DE-CIX")
	addPeer(t, s, 100)
	r := route(100, 0)
	announceOK(t, s, 100, r)
	s.Withdraw(100, r.Prefix)
	if got := len(s.AcceptedRoutes(100)); got != 0 {
		t.Errorf("routes after withdraw = %d", got)
	}
	// Withdrawing an absent prefix is a no-op.
	s.Withdraw(100, r.Prefix)
	s.Withdraw(999, r.Prefix)
}

func TestRemovePeerDropsState(t *testing.T) {
	s := testServer(t, "DE-CIX")
	addPeer(t, s, 100)
	announceOK(t, s, 100, route(100, 0))
	s.RemovePeer(100)
	if s.HasPeer(100) {
		t.Error("peer still present")
	}
	if got := len(s.AcceptedRoutes(100)); got != 0 {
		t.Errorf("routes = %d", got)
	}
}

func TestStats(t *testing.T) {
	s := testServer(t, "DE-CIX")
	addPeer(t, s, 100)
	addPeer(t, s, 200)
	announceOK(t, s, 100, route(100, 0, bgp.NewCommunity(0, 15169)))
	announceOK(t, s, 100, route(100, 1))
	announceOK(t, s, 200, route(200, 2, bgp.NewCommunity(0, 15169), bgp.NewCommunity(100, 1)))
	v6 := bgp.Route{
		Prefix:  netutil.SyntheticV6Prefix(0),
		NextHop: netutil.PeerAddrV6(2),
		ASPath:  bgp.ASPath{200},
	}
	announceOK(t, s, 200, v6)

	st := s.Stats()
	if st.MembersV4 != 2 || st.MembersV6 != 2 {
		t.Errorf("members = %d/%d", st.MembersV4, st.MembersV6)
	}
	if st.RoutesV4 != 3 || st.RoutesV6 != 1 {
		t.Errorf("routes = %d/%d", st.RoutesV4, st.RoutesV6)
	}
	if st.PrefixesV4 != 3 || st.PrefixesV6 != 1 {
		t.Errorf("prefixes = %d/%d", st.PrefixesV4, st.PrefixesV6)
	}
	if st.CommunitiesV4 != 3 {
		t.Errorf("communities v4 = %d, want 3", st.CommunitiesV4)
	}
	if st.IXP != "DE-CIX" {
		t.Errorf("IXP = %q", st.IXP)
	}
}
