package bgp

import (
	"net/netip"
	"strings"
	"testing"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustAddr(s string) netip.Addr     { return netip.MustParseAddr(s) }

func TestStringers(t *testing.T) {
	for o, want := range map[Origin]string{
		OriginIGP: "IGP", OriginEGP: "EGP", OriginIncomplete: "Incomplete",
		Origin(9): "Origin(9)",
	} {
		if got := o.String(); got != want {
			t.Errorf("Origin(%d) = %q, want %q", o, got, want)
		}
	}
}

func TestRouteString(t *testing.T) {
	r := Route{
		Prefix:      mustPrefix("198.51.100.0/24"),
		NextHop:     mustAddr("10.0.0.7"),
		ASPath:      ASPath{6939, 64512},
		Communities: []Community{NewCommunity(0, 15169)},
	}
	s := r.String()
	for _, want := range []string{"198.51.100.0/24", "10.0.0.7", "6939 64512", "0:15169"} {
		if !strings.Contains(s, want) {
			t.Errorf("Route.String() = %q misses %q", s, want)
		}
	}
	// Without communities the comm block is absent.
	r.Communities = nil
	if strings.Contains(r.String(), "comm") {
		t.Errorf("empty communities still rendered: %q", r.String())
	}
}

func TestRouteAccessors(t *testing.T) {
	r := Route{
		Prefix:  mustPrefix("2001:db8::/32"),
		NextHop: mustAddr("2001:db8::1"),
		ASPath:  ASPath{100, 200, 300},
	}
	if r.OriginAS() != 300 || r.PeerAS() != 100 {
		t.Errorf("origin/peer = %d/%d", r.OriginAS(), r.PeerAS())
	}
	if !r.IsIPv6() {
		t.Error("IsIPv6 = false for a v6 route")
	}
}

func TestRouteValidate(t *testing.T) {
	ok := Route{Prefix: mustPrefix("198.51.100.0/24"), NextHop: mustAddr("10.0.0.1"), ASPath: ASPath{1}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid route rejected: %v", err)
	}
	cases := []Route{
		{},
		{Prefix: mustPrefix("198.51.100.0/24")},
		{Prefix: mustPrefix("198.51.100.0/24"), NextHop: mustAddr("2001:db8::1"), ASPath: ASPath{1}},
		{Prefix: mustPrefix("198.51.100.0/24"), NextHop: mustAddr("10.0.0.1")},
	}
	for i, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid route accepted", i)
		}
	}
}

func TestRouteCloneIndependence(t *testing.T) {
	r := Route{
		Prefix:      mustPrefix("198.51.100.0/24"),
		NextHop:     mustAddr("10.0.0.1"),
		ASPath:      ASPath{1, 2},
		Communities: []Community{NewCommunity(1, 1)},
	}
	c := r.Clone()
	c.ASPath[0] = 99
	c.Communities[0] = NewCommunity(9, 9)
	if r.ASPath[0] != 1 || r.Communities[0] != NewCommunity(1, 1) {
		t.Error("Clone aliases the original")
	}
}

func TestRouteCommunityCount(t *testing.T) {
	r := Route{
		Communities:      []Community{1, 2, 3},
		ExtCommunities:   []ExtendedCommunity{{}},
		LargeCommunities: []LargeCommunity{{}, {}},
	}
	if got := r.CommunityCount(); got != 6 {
		t.Errorf("CommunityCount = %d, want 6", got)
	}
}
