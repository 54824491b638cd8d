package rs

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
)

// Config parameterises a route server instance.
type Config struct {
	// Scheme is the hosting IXP's community scheme; it drives both
	// import special-cases (blackhole host routes) and export actions.
	Scheme *dictionary.Scheme
	// MaxPathLen rejects announcements with longer AS paths (0 = no
	// limit). Production route servers commonly cap around 32–64.
	MaxPathLen int
	// MaxCommunities rejects announcements with more community values
	// (0 = no limit) — DE-CIX's "too many communities" hygiene filter.
	MaxCommunities int
	// ScrubActions removes action communities from exported routes
	// after acting on them (the default in the field).
	ScrubActions bool
	// AttachInfo makes the server tag every accepted route with its
	// scheme's informational communities on ingress.
	AttachInfo bool
	// InfoPerRoute is how many informational tags ingress attaches
	// (clamped to the scheme's InfoCount); 2 matches the roughly 1/3
	// informational share of Fig. 3 for typical tagging rates.
	InfoPerRoute int
}

// Peer is one member AS session at the route server.
type Peer struct {
	ASN    uint32
	Name   string
	AddrV4 netip.Addr
	AddrV6 netip.Addr
	// IPv4/IPv6 report which families the member established sessions
	// for (Table 1 counts them separately).
	IPv4 bool
	IPv6 bool
}

// ribEntry is one accepted Adj-RIB-In route plus its precomputed
// export action summary.
type ribEntry struct {
	route   bgp.Route
	actions actionSummary
}

// Server is an in-memory route server. All methods are safe for
// concurrent use.
type Server struct {
	cfg Config

	mu       sync.RWMutex
	peers    map[uint32]*Peer
	ribIn    map[uint32]map[netip.Prefix]ribEntry
	filtered map[uint32][]FilteredRoute
	// ordered caches each peer's Adj-RIB-In keys in prefix order — the
	// order every listing is served in. A slot is built by the first
	// reader that needs it (under the read lock: racing readers build
	// equal views and either store wins), never modified afterwards,
	// and dropped by the next Announce/Withdraw that changes which
	// prefixes the peer holds. Populating a server therefore costs
	// nothing extra, and a listing costs one sort per mutation instead
	// of one per call.
	ordered map[uint32]*atomic.Pointer[[]netip.Prefix]
	// summarize is Announce's scratch, touched only under the write lock.
	summarize summaryScratch
}

// New builds a server for the given configuration. The scheme is
// mandatory.
func New(cfg Config) (*Server, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("rs: config needs a community scheme")
	}
	if err := cfg.Scheme.Validate(); err != nil {
		return nil, err
	}
	if cfg.InfoPerRoute > cfg.Scheme.InfoCount {
		cfg.InfoPerRoute = cfg.Scheme.InfoCount
	}
	return &Server{
		cfg:      cfg,
		peers:    make(map[uint32]*Peer),
		ribIn:    make(map[uint32]map[netip.Prefix]ribEntry),
		filtered: make(map[uint32][]FilteredRoute),
		ordered:  make(map[uint32]*atomic.Pointer[[]netip.Prefix]),
	}, nil
}

// Scheme returns the hosting IXP's community scheme.
func (s *Server) Scheme() *dictionary.Scheme { return s.cfg.Scheme }

// AddPeer registers a member session. Re-adding an existing ASN
// updates its metadata without dropping routes.
func (s *Server) AddPeer(p Peer) error {
	if p.ASN == 0 {
		return fmt.Errorf("rs: peer ASN must be non-zero")
	}
	if !p.IPv4 && !p.IPv6 {
		return fmt.Errorf("rs: peer AS%d has no address family enabled", p.ASN)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := p
	s.peers[p.ASN] = &cp
	if _, ok := s.ribIn[p.ASN]; !ok {
		s.ribIn[p.ASN] = make(map[netip.Prefix]ribEntry)
		s.ordered[p.ASN] = new(atomic.Pointer[[]netip.Prefix])
	}
	return nil
}

// RemovePeer drops a member and all its routes.
func (s *Server) RemovePeer(asn uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.peers, asn)
	delete(s.ribIn, asn)
	delete(s.ordered, asn)
	delete(s.filtered, asn)
}

// Peers returns the member list sorted by ASN.
func (s *Server) Peers() []Peer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Peer, 0, len(s.peers))
	for _, p := range s.peers {
		out = append(out, *p)
	}
	slices.SortFunc(out, func(a, b Peer) int { return cmp.Compare(a.ASN, b.ASN) })
	return out
}

// HasPeer reports whether asn has a session at the server — the
// membership test behind the paper's §5.5 "targets not at the RS"
// analysis.
func (s *Server) HasPeer(asn uint32) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.peers[asn]
	return ok
}

// Announce runs the import policy on r as announced by peerASN.
// Accepted routes land in the peer's Adj-RIB-In (keyed by prefix, so a
// re-announcement replaces the previous path); rejected routes are
// recorded on the filtered list with their reason.
func (s *Server) Announce(peerASN uint32, r bgp.Route) (FilterReason, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.peers[peerASN]; !ok {
		return FilterNone, fmt.Errorf("rs: AS%d has no session", peerASN)
	}
	if reason := s.checkImport(peerASN, &r); reason != FilterNone {
		s.filtered[peerASN] = append(s.filtered[peerASN], FilteredRoute{Route: r.Clone(), Reason: reason})
		return reason, nil
	}
	stored := r.Clone()
	if s.cfg.AttachInfo {
		for k := 0; k < s.cfg.InfoPerRoute; k++ {
			info, err := s.cfg.Scheme.Info(k)
			if err != nil {
				break
			}
			if !bgp.HasCommunity(stored.Communities, info) {
				stored.Communities = append(stored.Communities, info)
			}
		}
	}
	rib := s.ribIn[peerASN]
	if _, replaces := rib[stored.Prefix]; !replaces {
		s.ordered[peerASN].Store(nil)
	}
	rib[stored.Prefix] = ribEntry{
		route:   stored,
		actions: summarizeActions(s.cfg.Scheme, &stored, &s.summarize),
	}
	return FilterNone, nil
}

// Withdraw removes peerASN's route for prefix, if present.
func (s *Server) Withdraw(peerASN uint32, prefix netip.Prefix) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rib := s.ribIn[peerASN]
	if _, held := rib[prefix]; held {
		delete(rib, prefix)
		s.ordered[peerASN].Store(nil)
	}
}

// prefixOrder returns peerASN's accepted prefixes in listing order,
// building the cached view if the last mutation dropped it. The
// caller holds s.mu (read or write) and rib is s.ribIn[peerASN].
func (s *Server) prefixOrder(peerASN uint32, rib map[netip.Prefix]ribEntry) []netip.Prefix {
	slot := s.ordered[peerASN]
	if v := slot.Load(); v != nil {
		return *v
	}
	order := make([]netip.Prefix, 0, len(rib))
	for p := range rib {
		order = append(order, p)
	}
	slices.SortFunc(order, comparePrefix)
	slot.Store(&order)
	return order
}

// AcceptedRoutes returns deep copies of peerASN's accepted Adj-RIB-In
// routes in prefix order (address, then length — within one peer the
// order Snapshot.Normalize wants). The order comes from the server's
// cached view, so a call copies the routes and sorts nothing unless an
// Announce or Withdraw changed the peer's prefix set since the last
// listing. Callers that only need a window or a count use
// VisitAccepted and RouteCounts, which copy nothing.
func (s *Server) AcceptedRoutes(peerASN uint32) []bgp.Route {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rib, ok := s.ribIn[peerASN]
	if !ok {
		return nil
	}
	order := s.prefixOrder(peerASN, rib)
	out := make([]bgp.Route, len(order))
	for i, p := range order {
		out[i] = rib[p].route.Clone()
	}
	return out
}

// window clamps a listing window to n items.
func window(n, offset, limit int) (lo, hi int) {
	if offset < 0 || offset > n {
		offset = n
	}
	if limit < 0 || limit > n-offset {
		limit = n - offset
	}
	return offset, offset + limit
}

// VisitAccepted calls visit for routes [offset, offset+limit) of
// peerASN's accepted routes in prefix order and returns how many the
// peer holds in total. Window and total are read under one read lock,
// so a page is never torn: a concurrent Announce or Withdraw lands
// wholly before or wholly after it (and moves the total a paging
// client compares across pages). visit sees the Adj-RIB-In entry
// itself: it must not modify or retain the route or its slices, and it
// runs with the lock held, so it must only copy or render into memory
// — never write to the network.
func (s *Server) VisitAccepted(peerASN uint32, offset, limit int, visit func(*bgp.Route)) (total int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rib, ok := s.ribIn[peerASN]
	if !ok {
		return 0
	}
	order := s.prefixOrder(peerASN, rib)
	lo, hi := window(len(order), offset, limit)
	var e ribEntry // one copy for the walk: visit's argument escapes
	for _, p := range order[lo:hi] {
		e = rib[p]
		visit(&e.route)
	}
	return len(order)
}

// VisitFiltered is VisitAccepted over the routes rejected from
// peerASN, in rejection order, under the same contract.
func (s *Server) VisitFiltered(peerASN uint32, offset, limit int, visit func(*FilteredRoute)) (total int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	filtered := s.filtered[peerASN]
	lo, hi := window(len(filtered), offset, limit)
	for i := lo; i < hi; i++ {
		visit(&filtered[i])
	}
	return len(filtered)
}

// RouteCounts reports how many routes peerASN has accepted and
// filtered, in O(1) — what a neighbor summary or a count-only query
// needs, without copying a route.
func (s *Server) RouteCounts(peerASN uint32) (accepted, filtered int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ribIn[peerASN]), len(s.filtered[peerASN])
}

// FilteredRoutes returns the routes rejected from peerASN.
func (s *Server) FilteredRoutes(peerASN uint32) []FilteredRoute {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src := s.filtered[peerASN]
	out := make([]FilteredRoute, len(src))
	for i, f := range src {
		out[i] = FilteredRoute{Route: f.Route.Clone(), Reason: f.Reason}
	}
	return out
}

// comparePrefix orders prefixes by address (IPv4 before IPv6), then
// length.
func comparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits(), b.Bits())
}

// Stats summarises the server state with the quantities of Table 1.
type Stats struct {
	IXP            string
	MembersV4      int
	MembersV6      int
	PrefixesV4     int
	PrefixesV6     int
	RoutesV4       int
	RoutesV6       int
	CommunitiesV4  int
	CommunitiesV6  int
	FilteredRoutes int
}

// Stats computes the current Table 1 row for this server.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{IXP: s.cfg.Scheme.IXP}
	for _, p := range s.peers {
		if p.IPv4 {
			st.MembersV4++
		}
		if p.IPv6 {
			st.MembersV6++
		}
	}
	seenV4 := make(map[netip.Prefix]bool)
	seenV6 := make(map[netip.Prefix]bool)
	for _, rib := range s.ribIn {
		for _, e := range rib {
			if e.route.IsIPv6() {
				st.RoutesV6++
				st.CommunitiesV6 += e.route.CommunityCount()
				seenV6[e.route.Prefix] = true
			} else {
				st.RoutesV4++
				st.CommunitiesV4 += e.route.CommunityCount()
				seenV4[e.route.Prefix] = true
			}
		}
	}
	st.PrefixesV4 = len(seenV4)
	st.PrefixesV6 = len(seenV6)
	for _, f := range s.filtered {
		st.FilteredRoutes += len(f)
	}
	return st
}
