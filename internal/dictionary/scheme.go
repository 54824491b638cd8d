package dictionary

import (
	"fmt"

	"ixplight/internal/bgp"
)

// Prepend community high halves (the de-facto convention DE-CIX and
// IX.br document: 65501:x prepends once, 65502:x twice, 65503:x three
// times).
const (
	PrependOnceASN   = 65501
	PrependTwiceASN  = 65502
	PrependThriceASN = 65503
)

// Scheme describes how one IXP encodes its standard BGP communities.
// It can classify arbitrary community values (pattern-based, so any
// target ASN is recognised) and construct communities for the route
// server and the workload generator.
type Scheme struct {
	// IXP is the short name used across the repo ("IX.br-SP", ...).
	IXP string
	// RSASN is the route server's 16-bit ASN; it anchors the
	// do-not-announce / announce-only encodings.
	RSASN uint16
	// InfoASN is the high half of informational communities the RS
	// attaches on ingress.
	InfoASN uint16
	// InfoCount is how many informational values the IXP defines
	// (InfoASN:0 .. InfoASN:InfoCount-1).
	InfoCount int
	// SupportsPrepend / SupportsBlackhole reproduce the per-IXP
	// feature matrix of Table 2.
	SupportsPrepend   bool
	SupportsBlackhole bool
	// SupportsExtPrepend enables the extended-community prepending
	// encoding (AMS-IX, §5.3: standard-community prepending there only
	// exists in the to-everyone form).
	SupportsExtPrepend bool
	// SupportsLarge enables the large-community mirror of the action
	// set, needed for 32-bit target ASNs.
	SupportsLarge bool
	// DocumentedTargets are the peer ASNs the IXP's website explicitly
	// enumerates community values for; they size the dictionary.
	DocumentedTargets []uint16
}

// Validate checks the scheme's internal consistency: the anchor ASNs
// must not collide with each other or with the reserved prepend and
// well-known ranges.
func (s *Scheme) Validate() error {
	if s.IXP == "" {
		return fmt.Errorf("dictionary: scheme without IXP name")
	}
	anchors := map[uint16]string{0: "zero"}
	for _, a := range []struct {
		asn  uint16
		name string
	}{{s.RSASN, "rs"}, {s.InfoASN, "info"}} {
		if a.asn >= PrependOnceASN {
			return fmt.Errorf("dictionary: %s: %s ASN %d collides with reserved space", s.IXP, a.name, a.asn)
		}
		if prev, dup := anchors[a.asn]; dup {
			return fmt.Errorf("dictionary: %s: %s ASN %d collides with %s", s.IXP, a.name, a.asn, prev)
		}
		anchors[a.asn] = a.name
	}
	if s.InfoCount < 0 {
		return fmt.Errorf("dictionary: %s: negative InfoCount", s.IXP)
	}
	return nil
}

// Classify maps one standard community value to its meaning under this
// scheme. Values the IXP does not define come back with Known=false.
func (s *Scheme) Classify(c bgp.Community) Class {
	high, low := c.ASN(), c.Value()
	switch {
	case c == bgp.BlackholeWellKnown:
		if !s.SupportsBlackhole {
			return Class{}
		}
		return Class{Known: true, Action: Blackhole, Target: TargetNone}

	case high == 0:
		if low == 0 {
			return Class{} // 0:0 is undefined everywhere
		}
		if low == s.RSASN {
			return Class{Known: true, Action: DoNotAnnounceTo, Target: TargetAll}
		}
		return Class{Known: true, Action: DoNotAnnounceTo, Target: TargetPeer, TargetASN: uint32(low)}

	case high == s.RSASN:
		if low == s.RSASN {
			return Class{Known: true, Action: AnnounceOnlyTo, Target: TargetAll}
		}
		if low == 0 {
			return Class{}
		}
		return Class{Known: true, Action: AnnounceOnlyTo, Target: TargetPeer, TargetASN: uint32(low)}

	case high >= PrependOnceASN && high <= PrependThriceASN:
		if !s.SupportsPrepend || low == 0 {
			return Class{}
		}
		n := int(high - PrependOnceASN + 1)
		if low == s.RSASN {
			return Class{Known: true, Action: PrependTo, Target: TargetAll, PrependCount: n}
		}
		return Class{Known: true, Action: PrependTo, Target: TargetPeer, TargetASN: uint32(low), PrependCount: n}

	case high == s.InfoASN:
		if int(low) < s.InfoCount {
			return Class{Known: true, Action: Informational, Target: TargetNone}
		}
		return Class{}

	default:
		return Class{}
	}
}

// PeerAction is Classify(c).Action for the values Classify aims at one
// peer (Target TargetPeer), and Informational for every other value. It
// builds no Class, so counting the targeted tags of a whole table costs
// a fraction of classifying it.
func (s *Scheme) PeerAction(c bgp.Community) ActionType {
	high, low := c.ASN(), c.Value()
	switch {
	case low == 0 || low == s.RSASN:
		return Informational
	case high == 0:
		return DoNotAnnounceTo
	case high == s.RSASN:
		return AnnounceOnlyTo
	case high >= PrependOnceASN && high <= PrependThriceASN && s.SupportsPrepend:
		return PrependTo
	}
	return Informational
}

// DoNotAnnounce builds the community requesting the RS not to export a
// route to target.
func (s *Scheme) DoNotAnnounce(target uint16) bgp.Community {
	return bgp.NewCommunity(0, target)
}

// DoNotAnnounceAll builds the community blocking export to all peers.
func (s *Scheme) DoNotAnnounceAll() bgp.Community {
	return bgp.NewCommunity(0, s.RSASN)
}

// AnnounceOnly builds the community restricting export to target.
func (s *Scheme) AnnounceOnly(target uint16) bgp.Community {
	return bgp.NewCommunity(s.RSASN, target)
}

// AnnounceAll builds the community explicitly allowing export to all.
func (s *Scheme) AnnounceAll() bgp.Community {
	return bgp.NewCommunity(s.RSASN, s.RSASN)
}

// Prepend builds the community asking for n (1–3) prepends towards
// target; target == s.RSASN means "towards everyone".
func (s *Scheme) Prepend(n int, target uint16) (bgp.Community, error) {
	if !s.SupportsPrepend {
		return 0, fmt.Errorf("dictionary: %s does not support prepend communities", s.IXP)
	}
	if n < 1 || n > 3 {
		return 0, fmt.Errorf("dictionary: prepend count %d out of range 1..3", n)
	}
	return bgp.NewCommunity(uint16(PrependOnceASN+n-1), target), nil
}

// BlackholeCommunity returns the RFC 7999 community if supported.
func (s *Scheme) BlackholeCommunity() (bgp.Community, error) {
	if !s.SupportsBlackhole {
		return 0, fmt.Errorf("dictionary: %s does not support blackholing", s.IXP)
	}
	return bgp.BlackholeWellKnown, nil
}

// Info builds the k-th informational community.
func (s *Scheme) Info(k int) (bgp.Community, error) {
	if k < 0 || k >= s.InfoCount {
		return 0, fmt.Errorf("dictionary: %s defines %d informational communities, index %d out of range", s.IXP, s.InfoCount, k)
	}
	return bgp.NewCommunity(s.InfoASN, uint16(k)), nil
}
