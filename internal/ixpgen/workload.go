package ixpgen

import (
	"fmt"
	"net/netip"
	"slices"

	"ixplight/internal/bgp"
	"ixplight/internal/collector"
	"ixplight/internal/rs"
)

// Populate loads the whole workload into a route server in one call
// (rs.Server.Load): every member joins as a peer and every route runs
// through the import pipeline, the generated routes first and the
// invalid ones after them. The generator only emits import-clean
// routes, so an unexpected rejection is an error (it would silently
// skew the calibration), and so is an invalid route that is accepted.
func (w *Workload) Populate(server *rs.Server) error {
	peers := make([]rs.Peer, len(w.Members))
	for i, m := range w.Members {
		peers[i] = rs.Peer{ASN: m.ASN, Name: m.Name, IPv4: m.IPv4, IPv6: m.IPv6}
	}
	reasons, err := server.Load(peers, w.Routes, w.Invalid)
	if err != nil {
		return fmt.Errorf("ixpgen: populate: %w", err)
	}
	for i, reason := range reasons[:len(w.Routes)] {
		if reason != rs.FilterNone {
			r := &w.Routes[i]
			return fmt.Errorf("ixpgen: generated route %s from AS%d rejected: %v", r.Prefix, r.PeerAS(), reason)
		}
	}
	for i, reason := range reasons[len(w.Routes):] {
		if reason == rs.FilterNone {
			r := &w.Invalid[i]
			return fmt.Errorf("ixpgen: invalid route %s from AS%d was accepted", r.Prefix, r.PeerAS())
		}
	}
	return nil
}

// Snapshot packages the workload directly as a collector snapshot —
// the fast path equivalent to Populate + LG crawl, used by the
// twelve-week dataset builder. TestSnapshotMatchesCollectedSnapshot
// pins the equivalence.
func (w *Workload) Snapshot(date string) *collector.Snapshot {
	s := &collector.Snapshot{
		IXP:           w.Profile.IXP,
		Date:          date,
		FilteredCount: len(w.Invalid),
	}
	for _, m := range w.Members {
		s.Members = append(s.Members, collector.Member{
			ASN: m.ASN, Name: m.Name, IPv4: m.IPv4, IPv6: m.IPv6,
		})
	}
	s.Routes = append(s.Routes, w.Routes...)
	s.Normalize()
	return s
}

// AdvanceServer moves a route server that holds the day prev (nil for
// an empty server) to the day next, as a live route server lives
// through a series: members that left are removed with their routes,
// members that joined are added, routes that are gone are withdrawn
// and new or changed routes announced. A route of a peer that is not a
// member of next is not announced — a valley day keeps routes of
// members the collection lost, and no crawl could list them. Every
// other route of a generated day is import-clean, so a rejection is an
// error.
func AdvanceServer(server *rs.Server, prev, next *collector.Snapshot) error {
	if prev == nil {
		prev = &collector.Snapshot{}
	}
	type routeKey struct {
		peer   uint32
		prefix netip.Prefix
	}
	had := make(map[uint32]collector.Member, len(prev.Members))
	for _, m := range prev.Members {
		had[m.ASN] = m
	}
	has := make(map[uint32]bool, len(next.Members))
	for _, m := range next.Members {
		has[m.ASN] = true
	}
	for _, m := range prev.Members {
		if !has[m.ASN] {
			server.RemovePeer(m.ASN)
		}
	}
	for _, m := range next.Members {
		if old, ok := had[m.ASN]; ok && old == m {
			continue
		}
		if err := server.AddPeer(rs.Peer(m)); err != nil {
			return fmt.Errorf("ixpgen: add peer AS%d: %w", m.ASN, err)
		}
	}

	// unmatched holds the routes prev put on the server until next
	// shows the same key.
	unmatched := make(map[routeKey]*bgp.Route, len(prev.Routes))
	for i := range prev.Routes {
		r := &prev.Routes[i]
		if _, member := had[r.PeerAS()]; member {
			unmatched[routeKey{r.PeerAS(), r.Prefix}] = r
		}
	}
	var announce []*bgp.Route
	for i := range next.Routes {
		r := &next.Routes[i]
		k := routeKey{r.PeerAS(), r.Prefix}
		old, held := unmatched[k]
		delete(unmatched, k)
		if has[k.peer] && !(held && sameRoute(old, r)) {
			announce = append(announce, r)
		}
	}
	for i := range prev.Routes {
		r := &prev.Routes[i]
		if _, gone := unmatched[routeKey{r.PeerAS(), r.Prefix}]; gone && has[r.PeerAS()] {
			server.Withdraw(r.PeerAS(), r.Prefix)
		}
	}
	for _, r := range announce {
		reason, err := server.Announce(r.PeerAS(), *r)
		if err != nil {
			return fmt.Errorf("ixpgen: announce %s from AS%d: %w", r.Prefix, r.PeerAS(), err)
		}
		if reason != rs.FilterNone {
			return fmt.Errorf("ixpgen: %s route %s from AS%d rejected: %v", next.Date, r.Prefix, r.PeerAS(), reason)
		}
	}
	return nil
}

// sameRoute reports whether a and b carry the same attributes; an
// empty list and a nil one are the same to a route server.
func sameRoute(a, b *bgp.Route) bool {
	return a.NextHop == b.NextHop && a.Origin == b.Origin && a.MED == b.MED && a.LocalPref == b.LocalPref &&
		slices.Equal(a.ASPath, b.ASPath) &&
		slices.Equal(a.Communities, b.Communities) &&
		slices.Equal(a.ExtCommunities, b.ExtCommunities) &&
		slices.Equal(a.LargeCommunities, b.LargeCommunities)
}
