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
	// ScrubActions removes action communities from exported routes
	// after acting on them (the default in the field).
	ScrubActions bool
}

// Peer is one member AS session at the route server.
type Peer struct {
	ASN  uint32
	Name string
	// IPv4/IPv6 report which families the member established sessions
	// for (Table 1 counts them separately).
	IPv4 bool
	IPv6 bool
}

// ribEntry is one accepted Adj-RIB-In route plus its precomputed
// export action summary, held in the server's store: the entry in a
// page, its lists in slabs.
type ribEntry struct {
	route   bgp.Route
	actions actionSummary
}

// Server is an in-memory route server. All methods are safe for
// concurrent use.
type Server struct {
	cfg Config

	mu    sync.RWMutex
	peers map[uint32]*Peer
	// ribIn maps each peer's prefixes to entries in store.
	ribIn map[uint32]map[netip.Prefix]*ribEntry
	// rejected counts the announcements each peer had rejected by the
	// import policy.
	rejected map[uint32]int
	// versions holds each peer's Adj-RIB-In version: the value clock
	// had at the peer's latest accepted announce, replace or withdrawal,
	// or at its removal. clock only grows, so no version repeats for a
	// peer, a removed and re-added one included.
	versions map[uint32]uint64
	clock    uint64
	// ordered caches each peer's Adj-RIB-In entries in prefix order —
	// the order every listing is served in, and walked in place. A slot
	// is built by the first reader that needs it (under the read lock:
	// racing readers build equal views and either store wins), never
	// modified afterwards, and dropped by the next mutation that changes
	// which prefixes the peer holds; a replacement rewrites its entry in
	// place and keeps the view. Populating a server therefore costs
	// nothing extra, and a listing costs one sort per mutation instead
	// of one per call.
	ordered map[uint32]*atomic.Pointer[[]*ribEntry]
	// store and summarize are Announce's, touched only under the write
	// lock.
	store     store
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
	return &Server{
		cfg:      cfg,
		peers:    make(map[uint32]*Peer),
		ribIn:    make(map[uint32]map[netip.Prefix]*ribEntry),
		rejected: make(map[uint32]int),
		versions: make(map[uint32]uint64),
		ordered:  make(map[uint32]*atomic.Pointer[[]*ribEntry]),
	}, nil
}

// Scheme returns the hosting IXP's community scheme.
func (s *Server) Scheme() *dictionary.Scheme { return s.cfg.Scheme }

// AddPeer registers a member session. Re-adding an existing ASN
// updates its metadata without dropping routes.
func (s *Server) AddPeer(p Peer) error {
	if err := p.check(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addPeer(p)
	return nil
}

// check is what a peer needs to have a session.
func (p *Peer) check() error {
	if p.ASN == 0 {
		return fmt.Errorf("rs: peer ASN must be non-zero")
	}
	if !p.IPv4 && !p.IPv6 {
		return fmt.Errorf("rs: peer AS%d has no address family enabled", p.ASN)
	}
	return nil
}

// addPeer is AddPeer under the write lock, for a peer that passed check.
func (s *Server) addPeer(p Peer) {
	s.peers[p.ASN] = &p
	if _, ok := s.ribIn[p.ASN]; !ok {
		s.ribIn[p.ASN] = make(map[netip.Prefix]*ribEntry)
		s.ordered[p.ASN] = new(atomic.Pointer[[]*ribEntry])
	}
}

// RemovePeer drops a member and all its routes.
func (s *Server) RemovePeer(asn uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.ribIn[asn] {
		s.store.release(e)
	}
	delete(s.peers, asn)
	delete(s.ribIn, asn)
	delete(s.ordered, asn)
	delete(s.rejected, asn)
	s.bump(asn)
	s.store.compact(s.ribIn)
}

// bump moves peerASN's Adj-RIB-In to a new version; the caller holds
// the write lock.
func (s *Server) bump(peerASN uint32) {
	s.clock++
	s.versions[peerASN] = s.clock
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
// re-announcement replaces the previous path); a rejected route is
// counted against the peer and returned with its reason. A rejected
// re-announcement still replaces (RFC 4271 §3.1): the route it
// follows leaves the Adj-RIB-In. The server copies r's lists; the
// caller keeps its own.
func (s *Server) Announce(peerASN uint32, r bgp.Route) (FilterReason, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.peers[peerASN]; !ok {
		return FilterNone, fmt.Errorf("rs: AS%d has no session", peerASN)
	}
	reason := s.checkImport(peerASN, &r)
	s.announce(peerASN, &r, reason)
	return reason, nil
}

// announce is what Announce and Load do with one route from a peer with
// a session once the import policy judged it: a rejected route is
// counted and withdraws the peer's route for its prefix; an accepted
// one is stored with its action summary, new or in place of the route
// it replaces, and moves the peer's version. The caller holds the write
// lock.
func (s *Server) announce(peerASN uint32, r *bgp.Route, reason FilterReason) {
	if reason != FilterNone {
		s.rejected[peerASN]++
		s.withdraw(peerASN, r.Prefix)
		return
	}
	rib := s.ribIn[peerASN]
	e, replaces := rib[r.Prefix]
	if replaces {
		s.store.drop(e)
	} else {
		e = s.store.entries.get()
		rib[r.Prefix] = e
		s.ordered[peerASN].Store(nil)
	}
	s.store.put(e, r, summarizeActions(s.cfg.Scheme, r, &s.summarize))
	s.bump(peerASN)
	if replaces {
		s.store.compact(s.ribIn)
	}
}

// Load adds a table in one call: every peer joins as AddPeer adds it,
// and then every route of tables, in order, is announced by the peer
// its AS path starts with (Route.PeerAS), as Announce announces it. The
// server ends where those AddPeer and Announce calls leave it, so every
// listing, export, count and peer version reads the same. Load returns
// each route's FilterReason, tables one after the other. A peer that
// AddPeer refuses fails the load before anything changes, and a route
// from a peer with no session fails it before any route is stored.
//
// A load costs less than its Announce calls because it sizes what it
// adds before it stores a route: each peer's Adj-RIB-In map, still
// empty, is made at its accepted routes' count, the RIB entries come
// from one allocation, and each slab cuts one chunk of exactly the
// elements the accepted routes' lists hold (loadNeed; room left by a
// target a route names twice is given up, see store.settle).
func (s *Server) Load(peers []Peer, tables ...[]bgp.Route) ([]FilterReason, error) {
	for i := range peers {
		if err := peers[i].check(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range peers {
		s.addPeer(p)
	}
	n := 0
	for _, t := range tables {
		n += len(t)
	}
	// The import verdict depends on the route and the configuration
	// alone, so it is taken once, while the table is counted, and
	// applied in order below.
	reasons := make([]FilterReason, 0, n)
	var need loadNeed
	// accepted counts each peer's accepted routes. A table holds a
	// peer's routes in runs, so the session check and the count run
	// once a run.
	accepted := make(map[uint32]int, len(s.peers))
	var peer uint32 // the current run's peer; 0, which has no session, before the first
	run := 0        // the current run's accepted routes
	for _, t := range tables {
		for i := range t {
			r := &t[i]
			if p := r.PeerAS(); p != peer || p == 0 {
				if _, ok := s.peers[p]; !ok {
					return nil, fmt.Errorf("rs: %s from AS%d: AS%d has no session", r.Prefix, p, p)
				}
				if run > 0 {
					accepted[peer] += run
				}
				peer, run = p, 0
			}
			reason := s.checkImport(peer, r)
			reasons = append(reasons, reason)
			if reason == FilterNone {
				run++
				need.add(s.cfg.Scheme, r)
			}
		}
	}
	if run > 0 {
		accepted[peer] += run
	}
	for p, routes := range accepted {
		if len(s.ribIn[p]) == 0 {
			s.ribIn[p] = make(map[netip.Prefix]*ribEntry, routes)
		}
	}
	s.store.reserve(&need)

	k := 0
	for _, t := range tables {
		for i := range t {
			s.announce(t[i].PeerAS(), &t[i], reasons[k])
			k++
		}
	}
	s.store.settle(s.ribIn)
	return reasons, nil
}

// Withdraw removes peerASN's route for prefix, if present.
func (s *Server) Withdraw(peerASN uint32, prefix netip.Prefix) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.withdraw(peerASN, prefix)
}

// withdraw is Withdraw under the write lock.
func (s *Server) withdraw(peerASN uint32, prefix netip.Prefix) {
	rib := s.ribIn[peerASN]
	if e, held := rib[prefix]; held {
		delete(rib, prefix)
		s.store.release(e)
		s.ordered[peerASN].Store(nil)
		s.bump(peerASN)
		s.store.compact(s.ribIn)
	}
}

// prefixOrder returns peerASN's accepted entries in listing order,
// building the cached view if the last mutation dropped it. The
// caller holds s.mu (read or write) and rib is s.ribIn[peerASN].
func (s *Server) prefixOrder(peerASN uint32, rib map[netip.Prefix]*ribEntry) []*ribEntry {
	slot := s.ordered[peerASN]
	if v := slot.Load(); v != nil {
		return *v
	}
	order := make([]*ribEntry, 0, len(rib))
	for _, e := range rib {
		order = append(order, e)
	}
	slices.SortFunc(order, func(a, b *ribEntry) int { return comparePrefix(a.route.Prefix, b.route.Prefix) })
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
	for i, e := range order {
		out[i] = e.route.Clone()
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
// peer holds in total and the version of the Adj-RIB-In they were read
// at. Window, total and version are read under one read lock, so a
// page is never torn: a concurrent Announce or Withdraw lands wholly
// before or wholly after it, and moves the version, so two pages of
// one version are two windows of one table. visit sees the Adj-RIB-In
// entry itself: it must not modify or retain the route or its slices,
// and it runs with the lock held, so it must only copy or render into
// memory — never write to the network.
func (s *Server) VisitAccepted(peerASN uint32, offset, limit int, visit func(*bgp.Route)) (total int, version uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rib, ok := s.ribIn[peerASN]
	if !ok {
		return 0, s.versions[peerASN]
	}
	order := s.prefixOrder(peerASN, rib)
	lo, hi := window(len(order), offset, limit)
	for _, e := range order[lo:hi] {
		visit(&e.route)
	}
	return len(order), s.versions[peerASN]
}

// RouteCounts reports how many routes peerASN holds accepted and how
// many of its announcements were rejected, in O(1) — what a neighbor
// summary needs, without copying a route.
func (s *Server) RouteCounts(peerASN uint32) (accepted, filtered int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ribIn[peerASN]), s.rejected[peerASN]
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
	for _, n := range s.rejected {
		st.FilteredRoutes += n
	}
	return st
}
