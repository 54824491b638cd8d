package rs

import (
	"fmt"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
)

// FilterReason says why an announced route was rejected by the import
// policy. FilterNone means the route was accepted.
type FilterReason int

// Import filter outcomes, mirroring the rejection reasons the paper
// lists in §3 plus the DE-CIX "too many communities" guard of §5.6.
const (
	FilterNone FilterReason = iota
	FilterInvalidRoute
	FilterBogonPrefix
	FilterBogonASN
	FilterPathTooLong
	FilterPrefixBounds
	FilterPathLoop
	FilterFirstASMismatch
	FilterTooManyCommunities
)

// String implements fmt.Stringer.
func (f FilterReason) String() string {
	switch f {
	case FilterNone:
		return "accepted"
	case FilterInvalidRoute:
		return "invalid-route"
	case FilterBogonPrefix:
		return "bogon-prefix"
	case FilterBogonASN:
		return "bogon-asn"
	case FilterPathTooLong:
		return "as-path-too-long"
	case FilterPrefixBounds:
		return "prefix-out-of-bounds"
	case FilterPathLoop:
		return "as-path-loop"
	case FilterFirstASMismatch:
		return "first-as-mismatch"
	case FilterTooManyCommunities:
		return "too-many-communities"
	default:
		return fmt.Sprintf("FilterReason(%d)", int(f))
	}
}

// FilteredRoute pairs a rejected route with its rejection reason, the
// shape the looking glass exposes under /routes/filtered.
type FilteredRoute struct {
	Route  bgp.Route
	Reason FilterReason
}

// checkImport applies the import policy for a route announced by
// peerASN. Blackhole-tagged routes (when the scheme supports them) are
// exempt from the prefix-bounds check so that /32 and /128 host routes
// pass, as real route-server configs special-case.
func (s *Server) checkImport(peerASN uint32, r *bgp.Route) FilterReason {
	if err := r.Validate(); err != nil {
		return FilterInvalidRoute
	}
	if r.PeerAS() != peerASN {
		return FilterFirstASMismatch
	}
	if netutil.IsBogonPrefix(r.Prefix) {
		return FilterBogonPrefix
	}
	for _, asn := range r.ASPath {
		if netutil.IsBogonASN(asn) {
			return FilterBogonASN
		}
	}
	if s.cfg.MaxPathLen > 0 && r.ASPath.Len() > s.cfg.MaxPathLen {
		return FilterPathTooLong
	}
	if r.ASPath.HasLoop() {
		return FilterPathLoop
	}
	isBlackhole := false
	if s.cfg.Scheme.SupportsBlackhole {
		isBlackhole = bgp.HasCommunity(r.Communities, bgp.BlackholeWellKnown)
		for _, l := range r.LargeCommunities {
			cl := s.cfg.Scheme.ClassifyLarge(l)
			if cl.Known && cl.Action == dictionary.Blackhole {
				isBlackhole = true
			}
		}
	}
	if !isBlackhole {
		if err := netutil.CheckPrefixBounds(r.Prefix); err != nil {
			return FilterPrefixBounds
		}
	}
	if s.cfg.MaxCommunities > 0 && r.CommunityCount() > s.cfg.MaxCommunities {
		return FilterTooManyCommunities
	}
	return FilterNone
}
