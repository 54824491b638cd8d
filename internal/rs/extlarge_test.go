package rs

import (
	"net/netip"
	"reflect"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
)

// TestLargeCommunityActionsExecute checks that large-community actions
// (the 32-bit-target extension) steer export exactly like standard
// ones.
func TestLargeCommunityActionsExecute(t *testing.T) {
	s := testServer(t, "DE-CIX")
	addPeer(t, s, 100)
	addPeer(t, s, 200)
	addPeer(t, s, 300)
	scheme := s.Scheme()

	deny200, err := scheme.LargeDoNotAnnounce(200)
	if err != nil {
		t.Fatal(err)
	}
	r := route(100, 0)
	r.LargeCommunities = []bgp.LargeCommunity{deny200}
	announceOK(t, s, 100, r)

	if got := len(s.ExportTo(200)); got != 0 {
		t.Errorf("AS200 export = %d, large deny ignored", got)
	}
	if got := len(s.ExportTo(300)); got != 1 {
		t.Errorf("AS300 export = %d, want 1", got)
	}
	// The large action community is scrubbed on export.
	if out := s.ExportTo(300); len(out[0].LargeCommunities) != 0 {
		t.Errorf("large action not scrubbed: %v", out[0].LargeCommunities)
	}
}

func TestLargeWhitelistExecutes(t *testing.T) {
	s := testServer(t, "DE-CIX")
	addPeer(t, s, 100)
	addPeer(t, s, 200)
	addPeer(t, s, 300)
	scheme := s.Scheme()

	blockAll, _ := scheme.LargeDoNotAnnounce(0)
	allow200, _ := scheme.LargeAnnounceOnly(200)
	r := route(100, 0)
	r.LargeCommunities = []bgp.LargeCommunity{blockAll, allow200}
	announceOK(t, s, 100, r)

	if got := len(s.ExportTo(200)); got != 1 {
		t.Errorf("whitelisted AS200 export = %d", got)
	}
	if got := len(s.ExportTo(300)); got != 0 {
		t.Errorf("AS300 export = %d, want 0", got)
	}
}

func TestExtendedPrependExecutes(t *testing.T) {
	s := testServer(t, "AMS-IX")
	addPeer(t, s, 100)
	addPeer(t, s, 200)
	addPeer(t, s, 300)
	scheme := s.Scheme()

	p3, err := scheme.ExtPrepend(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	r := route(100, 0)
	r.ExtCommunities = []bgp.ExtendedCommunity{p3}
	announceOK(t, s, 100, r)

	to200 := s.ExportTo(200)
	if len(to200) != 1 {
		t.Fatalf("AS200 export = %d", len(to200))
	}
	if want := (bgp.ASPath{100, 100, 100, 100}); !reflect.DeepEqual(to200[0].ASPath, want) {
		t.Errorf("AS200 path = %v, want %v", to200[0].ASPath, want)
	}
	if len(to200[0].ExtCommunities) != 0 {
		t.Errorf("ext prepend not scrubbed: %v", to200[0].ExtCommunities)
	}
	to300 := s.ExportTo(300)
	if to300[0].ASPath.Len() != 1 {
		t.Errorf("AS300 path = %v, want no prepend", to300[0].ASPath)
	}
}

func TestLargeBlackholeHostRoute(t *testing.T) {
	s := testServer(t, "DE-CIX")
	addPeer(t, s, 100)
	addPeer(t, s, 200)
	scheme := s.Scheme()

	bhComm := bgp.LargeCommunity{Global: uint32(scheme.RSASN), Local1: dictionary.LargeFnBlackhole, Local2: 0}
	bh := bgp.Route{
		Prefix:           netip.MustParsePrefix("1.2.3.4/32"),
		NextHop:          netutil.PeerAddrV4(1),
		ASPath:           bgp.ASPath{100},
		LargeCommunities: []bgp.LargeCommunity{bhComm},
	}
	if reason, _ := s.Announce(100, bh); reason != FilterNone {
		t.Fatalf("large-blackhole /32 rejected: %v", reason)
	}
	out := s.ExportTo(200)
	if len(out) != 1 {
		t.Fatalf("export = %d", len(out))
	}
	// The blackhole marker survives scrubbing (receivers need it).
	if len(out[0].LargeCommunities) != 1 || out[0].LargeCommunities[0] != bhComm {
		t.Errorf("large blackhole community = %v", out[0].LargeCommunities)
	}
}

func TestInformationalExtLargeSurviveScrubbing(t *testing.T) {
	s := testServer(t, "DE-CIX")
	addPeer(t, s, 100)
	addPeer(t, s, 200)
	scheme := s.Scheme()

	info, _ := scheme.LargeInfo(1)
	r := route(100, 0)
	r.ExtCommunities = []bgp.ExtendedCommunity{scheme.ExtInfo(2)}
	r.LargeCommunities = []bgp.LargeCommunity{info}
	announceOK(t, s, 100, r)

	out := s.ExportTo(200)
	if len(out[0].ExtCommunities) != 1 || len(out[0].LargeCommunities) != 1 {
		t.Errorf("informational ext/large scrubbed: %v %v",
			out[0].ExtCommunities, out[0].LargeCommunities)
	}
}
