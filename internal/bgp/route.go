package bgp

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
)

// Origin is the BGP ORIGIN attribute (RFC 4271 §5.1.1).
type Origin uint8

// Origin codes.
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

// String implements fmt.Stringer with the conventional short names.
func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "Incomplete"
	default:
		return fmt.Sprintf("Origin(%d)", uint8(o))
	}
}

// Route is one RIB entry: a prefix plus the path attributes the paper's
// collection records for every accepted route — next hop, AS path,
// origin, MED, local-pref and the three community lists. A dataset
// holds what a looking-glass crawl can see, so every field is on the
// looking glass's wire (internal/lg) as well as in the dataset codecs
// (internal/collector).
type Route struct {
	Prefix    netip.Prefix
	NextHop   netip.Addr
	ASPath    ASPath
	Origin    Origin
	MED       uint32
	LocalPref uint32

	Communities      []Community
	ExtCommunities   []ExtendedCommunity
	LargeCommunities []LargeCommunity
}

// Clone returns a deep copy; the route server mutates exported copies
// (scrubbing action communities, prepending) and must not alias the
// Adj-RIB-In entry.
func (r Route) Clone() Route {
	r.ASPath = slices.Clone(r.ASPath)
	r.Communities = slices.Clone(r.Communities)
	r.ExtCommunities = slices.Clone(r.ExtCommunities)
	r.LargeCommunities = slices.Clone(r.LargeCommunities)
	return r
}

// PeerAS returns the ASN of the announcing peer (first path element).
func (r Route) PeerAS() uint32 { return r.ASPath.Neighbor() }

// IsIPv6 reports whether the route carries an IPv6 prefix.
func (r Route) IsIPv6() bool { return r.Prefix.Addr().Is6() }

// CommunityCount returns the total number of community values of all
// three flavours attached to the route — the unit the paper's "4
// billion community instances" dataset counts.
func (r Route) CommunityCount() int {
	return len(r.Communities) + len(r.ExtCommunities) + len(r.LargeCommunities)
}

// String renders a compact single-line summary, e.g.
// "203.0.113.0/24 via 10.0.0.7 path [6939 64500] comm [0:15169 64500:64500]".
func (r Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s via %s path [%s]", r.Prefix, r.NextHop, r.ASPath)
	if len(r.Communities) > 0 {
		b.WriteString(" comm [")
		for i, c := range r.Communities {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(c.String())
		}
		b.WriteByte(']')
	}
	return b.String()
}

// Validate performs the structural checks the wire codec and the route
// server rely on: a valid prefix, a next hop of matching family and a
// non-empty AS path.
func (r Route) Validate() error {
	if !r.Prefix.IsValid() {
		return fmt.Errorf("bgp: route has invalid prefix")
	}
	if !r.NextHop.IsValid() {
		return fmt.Errorf("bgp: route %s has invalid next hop", r.Prefix)
	}
	if r.Prefix.Addr().Is6() != r.NextHop.Is6() {
		return fmt.Errorf("bgp: route %s next hop %s family mismatch", r.Prefix, r.NextHop)
	}
	if len(r.ASPath) == 0 {
		return fmt.Errorf("bgp: route %s has empty AS path", r.Prefix)
	}
	return nil
}
