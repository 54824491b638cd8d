package rs

import (
	"cmp"
	"slices"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
)

// actionSummary is the per-route digest of action communities,
// computed once at import time and stored by value in the RIB entry, so
// an export decision is a binary search or two instead of a
// re-classification of every community. A route without action
// communities has the zero summary and costs no allocation; one with
// targeted tags costs one slice for its targets plus one for its
// targeted prepends, however many tags it carries. The from-scratch
// reference the tests hold this to (exportScan, in export_test.go)
// re-classifies per decision.
type actionSummary struct {
	// targets is the do-not-announce-to list followed by the
	// announce-only-to list, each sorted and free of duplicates;
	// targets[:nDeny] is the first.
	targets []uint32
	// prepend holds one entry per targeted prepend-to peer (the largest
	// count asked for); prependAll is the count towards everyone.
	prepend    []prependTo
	nDeny      uint32
	prependAll uint8
	denyAll    bool
	blackhole  bool
}

// prependTo asks for n (1–3) prepends towards one peer.
type prependTo struct {
	asn uint32
	n   uint8
}

// summaryScratch is where Announce collects a route's targets before
// it knows how many there are. It belongs to the server and is only
// touched under the write lock.
type summaryScratch struct {
	deny, allow []uint32
	prepend     []prependTo
}

// summarizeActions classifies all three community flavours of a route
// once under the scheme.
func summarizeActions(scheme *dictionary.Scheme, r *bgp.Route, scratch *summaryScratch) actionSummary {
	var a actionSummary
	deny, allow, prepend := scratch.deny[:0], scratch.allow[:0], scratch.prepend[:0]
	apply := func(cl dictionary.Class) {
		if !cl.IsAction() {
			return
		}
		switch cl.Action {
		case dictionary.DoNotAnnounceTo:
			if cl.Target == dictionary.TargetAll {
				a.denyAll = true
			} else {
				deny = append(deny, cl.TargetASN)
			}
		case dictionary.AnnounceOnlyTo:
			// "announce to all" restores the default; nothing to do.
			if cl.Target != dictionary.TargetAll {
				allow = append(allow, cl.TargetASN)
			}
		case dictionary.PrependTo:
			n := uint8(cl.PrependCount)
			if cl.Target == dictionary.TargetAll {
				a.prependAll = max(a.prependAll, n)
			} else if i := slices.IndexFunc(prepend, func(p prependTo) bool { return p.asn == cl.TargetASN }); i >= 0 {
				prepend[i].n = max(prepend[i].n, n)
			} else {
				prepend = append(prepend, prependTo{asn: cl.TargetASN, n: n})
			}
		case dictionary.Blackhole:
			a.blackhole = true
		}
	}
	for _, c := range r.Communities {
		apply(scheme.Classify(c))
	}
	for _, e := range r.ExtCommunities {
		apply(scheme.ClassifyExtended(e))
	}
	for _, l := range r.LargeCommunities {
		apply(scheme.ClassifyLarge(l))
	}
	slices.Sort(deny)
	slices.Sort(allow)
	deny, allow = slices.Compact(deny), slices.Compact(allow)
	if n := len(deny) + len(allow); n > 0 {
		a.targets = append(append(make([]uint32, 0, n), deny...), allow...)
		a.nDeny = uint32(len(deny))
	}
	if len(prepend) > 0 {
		a.prepend = slices.Clone(prepend)
	}
	scratch.deny, scratch.allow, scratch.prepend = deny, allow, prepend
	return a
}

// exportAllowed decides whether a route with summary a may be exported
// to target — the one export decision every view (ExportTo,
// NotExportedTo, the visits) is built on. Specific communities beat
// the general ones, matching production BIRD filter chains:
//
//  1. 0:<target> denies,
//  2. <rs>:<target> allows,
//  3. 0:<rs> denies everyone else,
//  4. default allow.
func (a *actionSummary) exportAllowed(target uint32) bool {
	if _, denied := slices.BinarySearch(a.targets[:a.nDeny], target); denied {
		return false
	}
	if _, allowed := slices.BinarySearch(a.targets[a.nDeny:], target); allowed {
		return true
	}
	return !a.denyAll
}

// prependFor returns how many prepends the exported path needs towards
// target (the larger of the targeted and the to-everyone request).
func (a *actionSummary) prependFor(target uint32) int {
	n := a.prependAll
	for _, p := range a.prepend {
		if p.asn == target {
			n = max(n, p.n)
		}
	}
	return int(n)
}

// peerOrder returns the ASNs holding an Adj-RIB-In, ascending — the
// outer order of every export walk. The caller holds s.mu.
func (s *Server) peerOrder() []uint32 {
	order := make([]uint32, 0, len(s.ribIn))
	for asn := range s.ribIn {
		order = append(order, asn)
	}
	slices.Sort(order)
	return order
}

// walkCandidates makes the export decision for every candidate of an
// export towards member target — every other member's accepted routes —
// and hands each to fn with the verdict. It is the one walk all export
// views are two sides of. Candidates come by announcing peer in ASN
// order, then in the peer's prefix order, so two walks over an
// unchanged server see the same sequence. The read lock is held
// throughout; an unknown target has no candidates.
func (s *Server) walkCandidates(target uint32, fn func(peerASN uint32, e *ribEntry, allowed bool)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.peers[target]; !ok {
		return
	}
	var e ribEntry // one copy for the walk: fn's argument escapes
	for _, peerASN := range s.peerOrder() {
		if peerASN == target {
			continue
		}
		rib := s.ribIn[peerASN]
		for _, p := range s.prefixOrder(peerASN, rib) {
			e = rib[p]
			fn(peerASN, &e, e.actions.exportAllowed(target))
		}
	}
}

// VisitExported calls visit for every route the server propagates to
// member target, in walk order (announcing peer, then prefix), and
// returns how many there are: every other member's accepted routes,
// minus those whose action communities suppress the export, with
// prepending applied and (when configured) action communities scrubbed.
//
// It is VisitAccepted's contract with one difference: visit sees a
// scratch route the walk owns, whose slices the next route overwrites.
// It must not retain the route or its slices (ExportTo clones), and it
// runs with the read lock held, so it must only count, copy or render
// into memory.
func (s *Server) VisitExported(target uint32, visit func(*bgp.Route)) (total int) {
	buf := newExportBuf()
	s.walkCandidates(target, func(peerASN uint32, e *ribEntry, allowed bool) {
		if allowed {
			visit(s.export(buf, e, peerASN, target))
			total++
		}
	})
	return total
}

// VisitNotExported is the other side of the walk, in the same order:
// the routes the server withholds from member target because of action
// communities. Looking glasses expose this view (alice-lg's "not
// exported" tab); it is how an operator checks that their
// do-not-announce tags bite. A withheld route is listed as it was
// accepted, so visit is called for routes [offset, offset+limit) of the
// view (limit < 0: to the end) under exactly VisitAccepted's contract —
// it sees the Adj-RIB-In entry — and total is the size of the whole
// view, read under the same lock as the window.
func (s *Server) VisitNotExported(target uint32, offset, limit int, visit func(*bgp.Route)) (total int) {
	s.walkCandidates(target, func(_ uint32, e *ribEntry, allowed bool) {
		if allowed {
			return
		}
		if offset >= 0 && total >= offset && (limit < 0 || total-offset < limit) {
			visit(&e.route)
		}
		total++
	})
	return total
}

// exportBuf is the scratch of one export walk: the route handed to
// visit and the backing arrays its lists are rebuilt in for every
// route. The arrays are kept apart from the route so that a route
// without a list (nil, as accepted) does not drop the array.
type exportBuf struct {
	route  bgp.Route
	path   bgp.ASPath
	comms  []bgp.Community
	exts   []bgp.ExtendedCommunity
	larges []bgp.LargeCommunity
}

func newExportBuf() *exportBuf {
	return &exportBuf{
		path:   make(bgp.ASPath, 0, 16),
		comms:  make([]bgp.Community, 0, 32),
		exts:   make([]bgp.ExtendedCommunity, 0, 8),
		larges: make([]bgp.LargeCommunity, 0, 8),
	}
}

// export rebuilds in b the copy of e that member target receives from
// peerASN: prepends applied and, when configured, the scheme's action
// communities of all three flavours dropped. The RFC 7999 blackhole
// community is retained when the route is a blackhole request, since
// downstream members need to see it.
func (s *Server) export(b *exportBuf, e *ribEntry, peerASN, target uint32) *bgp.Route {
	src := &e.route
	scheme, scrub, keepBlackhole := s.cfg.Scheme, s.cfg.ScrubActions, e.actions.blackhole
	kept := func(cl dictionary.Class) bool {
		return !scrub || !cl.IsAction() || keepBlackhole && cl.Action == dictionary.Blackhole
	}

	b.path = b.path[:0]
	for n := e.actions.prependFor(target); n > 0; n-- {
		b.path = append(b.path, peerASN)
	}
	b.path = append(b.path, src.ASPath...)
	b.comms = b.comms[:0]
	for _, c := range src.Communities {
		if kept(scheme.Classify(c)) {
			b.comms = append(b.comms, c)
		}
	}
	b.exts = b.exts[:0]
	for _, x := range src.ExtCommunities {
		if kept(scheme.ClassifyExtended(x)) {
			b.exts = append(b.exts, x)
		}
	}
	b.larges = b.larges[:0]
	for _, l := range src.LargeCommunities {
		if kept(scheme.ClassifyLarge(l)) {
			b.larges = append(b.larges, l)
		}
	}

	b.route = *src
	b.route.ASPath = b.path
	b.route.Communities = nilAs(src.Communities, b.comms)
	b.route.ExtCommunities = nilAs(src.ExtCommunities, b.exts)
	b.route.LargeCommunities = nilAs(src.LargeCommunities, b.larges)
	return &b.route
}

// nilAs returns list, or nil when src is nil: an exported list is
// absent or merely empty as the accepted one was.
func nilAs[T any](src, list []T) []T {
	if src == nil {
		return nil
	}
	return list
}

// byPrefixThenPeer is the order of the materialised export views:
// prefix, then announcing peer. A peer holds a prefix once, so the
// order is total and does not depend on how the routes were collected.
func byPrefixThenPeer(a, b bgp.Route) int {
	if c := comparePrefix(a.Prefix, b.Prefix); c != 0 {
		return c
	}
	return cmp.Compare(a.PeerAS(), b.PeerAS())
}

// ExportTo returns deep copies of the routes VisitExported walks,
// sorted by prefix, then by announcing peer.
func (s *Server) ExportTo(target uint32) []bgp.Route {
	var out []bgp.Route
	s.VisitExported(target, func(r *bgp.Route) { out = append(out, r.Clone()) })
	slices.SortFunc(out, byPrefixThenPeer)
	return out
}

// NotExportedTo returns deep copies of the routes VisitNotExported
// walks — the complement of ExportTo over the other members' accepted
// routes — sorted by prefix, then by announcing peer.
func (s *Server) NotExportedTo(target uint32) []bgp.Route {
	var out []bgp.Route
	s.VisitNotExported(target, 0, -1, func(r *bgp.Route) { out = append(out, r.Clone()) })
	slices.SortFunc(out, byPrefixThenPeer)
	return out
}
