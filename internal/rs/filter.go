package rs

import (
	"fmt"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
)

// FilterReason says why an announced route was rejected by the import
// policy. FilterNone means the route was accepted. A byte, so the
// reasons Load returns for a whole table cost one byte a route.
type FilterReason uint8

// Import filter outcomes, mirroring the rejection reasons the paper
// lists in §3.
const (
	FilterNone FilterReason = iota
	FilterInvalidRoute
	FilterBogonPrefix
	FilterBogonASN
	FilterPathTooLong
	FilterPrefixBounds
	FilterPathLoop
	FilterFirstASMismatch
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
	default:
		return fmt.Sprintf("FilterReason(%d)", int(f))
	}
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
	if !isBlackhole && !netutil.InPrefixBounds(r.Prefix) {
		return FilterPrefixBounds
	}
	return FilterNone
}
