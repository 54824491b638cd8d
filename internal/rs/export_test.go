package rs

import (
	"cmp"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
	"ixplight/internal/netutil"
)

// exportFixture builds a DE-CIX server with three peers: announcer
// AS100 plus receivers AS200 and AS300.
func exportFixture(t *testing.T) (*Server, *dictionary.Scheme) {
	t.Helper()
	s := testServer(t, "DE-CIX")
	addPeer(t, s, 100, 1)
	addPeer(t, s, 200, 2)
	addPeer(t, s, 300, 3)
	return s, dictionary.ProfileByName("DE-CIX")
}

func prefixesOf(routes []bgp.Route) []netip.Prefix {
	out := make([]netip.Prefix, len(routes))
	for i, r := range routes {
		out[i] = r.Prefix
	}
	return out
}

// refSummary is the from-scratch reference's digest of a route's
// action communities: a struct of maps, rebuilt for every decision. It
// shares no code with actionSummary.
type refSummary struct {
	denyAll    bool
	deny       map[uint32]bool
	allow      map[uint32]bool
	prependAll int
	prepend    map[uint32]int
	blackhole  bool
}

func refSummarize(scheme *dictionary.Scheme, r bgp.Route) *refSummary {
	a := &refSummary{deny: map[uint32]bool{}, allow: map[uint32]bool{}, prepend: map[uint32]int{}}
	apply := func(cl dictionary.Class) {
		if !cl.IsAction() {
			return
		}
		switch cl.Action {
		case dictionary.DoNotAnnounceTo:
			if cl.Target == dictionary.TargetAll {
				a.denyAll = true
			} else {
				a.deny[cl.TargetASN] = true
			}
		case dictionary.AnnounceOnlyTo:
			if cl.Target != dictionary.TargetAll {
				a.allow[cl.TargetASN] = true
			}
		case dictionary.PrependTo:
			if cl.Target == dictionary.TargetAll {
				a.prependAll = max(a.prependAll, cl.PrependCount)
			} else {
				a.prepend[cl.TargetASN] = max(a.prepend[cl.TargetASN], cl.PrependCount)
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
	return a
}

func (a *refSummary) exportAllowed(target uint32) bool {
	if a.deny[target] {
		return false
	}
	if a.allow[target] {
		return true
	}
	return !a.denyAll
}

// refScrub drops the scheme's action communities from a cloned route in
// place, keeping the blackhole marker of a blackhole request.
func refScrub(scheme *dictionary.Scheme, r *bgp.Route, keepBlackhole bool) {
	comms := r.Communities[:0]
	for _, c := range r.Communities {
		cl := scheme.Classify(c)
		if cl.IsAction() && !(keepBlackhole && cl.Action == dictionary.Blackhole) {
			continue
		}
		comms = append(comms, c)
	}
	r.Communities = comms
	exts := r.ExtCommunities[:0]
	for _, e := range r.ExtCommunities {
		if !scheme.ClassifyExtended(e).IsAction() {
			exts = append(exts, e)
		}
	}
	r.ExtCommunities = exts
	larges := r.LargeCommunities[:0]
	for _, l := range r.LargeCommunities {
		cl := scheme.ClassifyLarge(l)
		if cl.IsAction() && !(keepBlackhole && cl.Action == dictionary.Blackhole) {
			continue
		}
		larges = append(larges, l)
	}
	r.LargeCommunities = larges
}

// exportScan is the from-scratch reference of both export views: it
// ignores the summaries and the walk, ranges the tables in map order,
// re-classifies every community of every candidate for each decision,
// builds each exported route by clone, Prepend and in-place scrub, and
// sorts both lists into the documented order (prefix, then announcing
// peer).
func (s *Server) exportScan(target uint32) (exported, withheld []bgp.Route) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.peers[target]; !ok {
		return nil, nil
	}
	for peerASN, rib := range s.ribIn {
		if peerASN == target {
			continue
		}
		for _, e := range rib {
			summary := refSummarize(s.cfg.Scheme, e.route)
			if !summary.exportAllowed(target) {
				withheld = append(withheld, e.route.Clone())
				continue
			}
			r := e.route.Clone()
			if n := max(summary.prependAll, summary.prepend[target]); n > 0 {
				r.ASPath = r.ASPath.Prepend(peerASN, n)
			}
			if s.cfg.ScrubActions {
				refScrub(s.cfg.Scheme, &r, summary.blackhole)
			}
			exported = append(exported, r)
		}
	}
	for _, list := range [][]bgp.Route{exported, withheld} {
		slices.SortFunc(list, func(a, b bgp.Route) int {
			if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Prefix.Bits(), b.Prefix.Bits()); c != 0 {
				return c
			}
			return cmp.Compare(a.ASPath[0], b.ASPath[0])
		})
	}
	return exported, withheld
}

// ExportToScan is the reference's ExportTo.
func (s *Server) ExportToScan(target uint32) []bgp.Route {
	exported, _ := s.exportScan(target)
	return exported
}

func TestExportDefaultAnnouncesToAll(t *testing.T) {
	s, _ := exportFixture(t)
	announceOK(t, s, 100, route(100, 0))
	if got := len(s.ExportTo(200)); got != 1 {
		t.Errorf("AS200 export = %d routes", got)
	}
	if got := len(s.ExportTo(300)); got != 1 {
		t.Errorf("AS300 export = %d routes", got)
	}
	// The announcer never sees its own route back.
	if got := len(s.ExportTo(100)); got != 0 {
		t.Errorf("AS100 export = %d routes, want 0", got)
	}
	// Unknown peers get nothing.
	if got := s.ExportTo(999); got != nil {
		t.Errorf("unknown peer export = %v", got)
	}
}

func TestExportDoNotAnnounceTo(t *testing.T) {
	s, scheme := exportFixture(t)
	announceOK(t, s, 100, route(100, 0, scheme.DoNotAnnounce(200)))
	if got := len(s.ExportTo(200)); got != 0 {
		t.Errorf("AS200 must be suppressed, got %d routes", got)
	}
	if got := len(s.ExportTo(300)); got != 1 {
		t.Errorf("AS300 export = %d routes, want 1", got)
	}
}

func TestExportDoNotAnnounceAll(t *testing.T) {
	s, scheme := exportFixture(t)
	announceOK(t, s, 100, route(100, 0, scheme.DoNotAnnounceAll()))
	if len(s.ExportTo(200)) != 0 || len(s.ExportTo(300)) != 0 {
		t.Error("deny-all leaked a route")
	}
}

func TestExportWhitelist(t *testing.T) {
	// Block all + announce-only-to AS200: only AS200 receives it.
	s, scheme := exportFixture(t)
	announceOK(t, s, 100, route(100, 0, scheme.DoNotAnnounceAll(), scheme.AnnounceOnly(200)))
	if got := len(s.ExportTo(200)); got != 1 {
		t.Errorf("whitelisted AS200 export = %d routes, want 1", got)
	}
	if got := len(s.ExportTo(300)); got != 0 {
		t.Errorf("AS300 export = %d routes, want 0", got)
	}
}

func TestExportSpecificDenyBeatsAllow(t *testing.T) {
	s, scheme := exportFixture(t)
	announceOK(t, s, 100, route(100, 0, scheme.DoNotAnnounce(200), scheme.AnnounceOnly(200)))
	if got := len(s.ExportTo(200)); got != 0 {
		t.Errorf("specific deny must win, got %d routes", got)
	}
}

func TestExportTargetingNonMemberHasNoEffect(t *testing.T) {
	// The §5.5 scenario: AS100 tags routes against Hurricane Electric,
	// which has no session — every actual member still receives the
	// route, so the community achieves nothing.
	s, scheme := exportFixture(t)
	announceOK(t, s, 100, route(100, 0, scheme.DoNotAnnounce(6939)))
	if got := len(s.ExportTo(200)); got != 1 {
		t.Errorf("AS200 export = %d routes, want 1", got)
	}
	if got := len(s.ExportTo(300)); got != 1 {
		t.Errorf("AS300 export = %d routes, want 1", got)
	}
}

func TestExportPrepend(t *testing.T) {
	s, scheme := exportFixture(t)
	p2, _ := scheme.Prepend(2, 200)
	announceOK(t, s, 100, route(100, 0, p2))

	to200 := s.ExportTo(200)
	if len(to200) != 1 {
		t.Fatalf("AS200 export = %d routes", len(to200))
	}
	if want := (bgp.ASPath{100, 100, 100}); !reflect.DeepEqual(to200[0].ASPath, want) {
		t.Errorf("AS200 path = %v, want %v", to200[0].ASPath, want)
	}
	to300 := s.ExportTo(300)
	if want := (bgp.ASPath{100}); !reflect.DeepEqual(to300[0].ASPath, want) {
		t.Errorf("AS300 path = %v, want %v", to300[0].ASPath, want)
	}
}

func TestExportPrependAllAndMax(t *testing.T) {
	s, scheme := exportFixture(t)
	pAll, _ := scheme.Prepend(1, scheme.RSASN) // prepend 1x to everyone
	p3, _ := scheme.Prepend(3, 200)            // and 3x to AS200
	announceOK(t, s, 100, route(100, 0, pAll, p3))

	if got := s.ExportTo(200)[0].ASPath.Len(); got != 4 {
		t.Errorf("AS200 path len = %d, want 4 (3 prepends)", got)
	}
	if got := s.ExportTo(300)[0].ASPath.Len(); got != 2 {
		t.Errorf("AS300 path len = %d, want 2 (1 prepend)", got)
	}
}

func TestExportScrubsActionCommunities(t *testing.T) {
	s, scheme := exportFixture(t)
	info, _ := scheme.Info(3)
	private := bgp.NewCommunity(100, 42) // member-private, unknown to the IXP
	announceOK(t, s, 100, route(100, 0, scheme.DoNotAnnounce(300), info, private))

	got := s.ExportTo(200)
	if len(got) != 1 {
		t.Fatalf("routes = %d", len(got))
	}
	comms := got[0].Communities
	if bgp.HasCommunity(comms, scheme.DoNotAnnounce(300)) {
		t.Error("action community not scrubbed")
	}
	if !bgp.HasCommunity(comms, info) {
		t.Error("informational community scrubbed")
	}
	if !bgp.HasCommunity(comms, private) {
		t.Error("unknown community scrubbed")
	}
}

func TestExportKeepsBlackholeCommunity(t *testing.T) {
	s, _ := exportFixture(t)
	bh := bgp.Route{
		Prefix:      netip.MustParsePrefix("1.2.3.4/32"),
		NextHop:     netutil.PeerAddrV4(1),
		ASPath:      bgp.ASPath{100},
		Communities: []bgp.Community{bgp.BlackholeWellKnown},
	}
	announceOK(t, s, 100, bh)
	got := s.ExportTo(200)
	if len(got) != 1 {
		t.Fatalf("routes = %d", len(got))
	}
	if !bgp.HasCommunity(got[0].Communities, bgp.BlackholeWellKnown) {
		t.Error("blackhole community must survive scrubbing")
	}
}

func TestExportNoScrubKeepsEverything(t *testing.T) {
	s, err := New(Config{Scheme: dictionary.ProfileByName("DE-CIX")})
	if err != nil {
		t.Fatal(err)
	}
	addPeer(t, s, 100, 1)
	addPeer(t, s, 200, 2)
	scheme := s.Scheme()
	announceOK(t, s, 100, route(100, 0, scheme.DoNotAnnounce(300)))
	got := s.ExportTo(200)
	if !bgp.HasCommunity(got[0].Communities, scheme.DoNotAnnounce(300)) {
		t.Error("with ScrubActions off the community must be visible")
	}
}

func TestExportToScanAgreesWithExportTo(t *testing.T) {
	s, scheme := exportFixture(t)
	p1, _ := scheme.Prepend(1, 300)
	announceOK(t, s, 100, route(100, 0, scheme.DoNotAnnounce(200)))
	announceOK(t, s, 100, route(100, 1, p1))
	announceOK(t, s, 200, route(200, 2, scheme.DoNotAnnounceAll(), scheme.AnnounceOnly(300)))
	announceOK(t, s, 300, route(300, 3))

	for _, target := range []uint32{100, 200, 300} {
		a, b := s.ExportTo(target), s.ExportToScan(target)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("target AS%d: ExportTo and ExportToScan disagree:\n %v\n %v", target, prefixesOf(a), prefixesOf(b))
		}
	}
}

func TestExportDeterministicOrder(t *testing.T) {
	s, _ := exportFixture(t)
	for i := 10; i > 0; i-- {
		announceOK(t, s, 100, route(100, i))
	}
	a := prefixesOf(s.ExportTo(200))
	b := prefixesOf(s.ExportTo(200))
	if !reflect.DeepEqual(a, b) {
		t.Error("export order unstable")
	}
	for i := 1; i < len(a); i++ {
		if !a[i-1].Addr().Less(a[i].Addr()) {
			t.Fatalf("export not sorted: %v before %v", a[i-1], a[i])
		}
	}
}

func TestNotExportedTo(t *testing.T) {
	s, scheme := exportFixture(t)
	announceOK(t, s, 100, route(100, 0, scheme.DoNotAnnounce(200)))
	announceOK(t, s, 100, route(100, 1))
	announceOK(t, s, 300, route(300, 2, scheme.DoNotAnnounceAll()))

	// AS200 misses the avoid-tagged route and the deny-all one.
	withheld := s.NotExportedTo(200)
	if len(withheld) != 2 {
		t.Fatalf("withheld = %d routes: %v", len(withheld), prefixesOf(withheld))
	}
	// Exported + withheld must partition the other members' routes.
	if got := len(s.ExportTo(200)) + len(withheld); got != 3 {
		t.Errorf("partition = %d routes, want 3", got)
	}
	// AS300 only misses the deny-all... which is its own route, so it
	// misses only AS100's avoid-tagged? No: 0:200 targets AS200 only.
	if got := len(s.NotExportedTo(300)); got != 0 {
		t.Errorf("AS300 withheld = %d, want 0", got)
	}
	if s.NotExportedTo(999) != nil {
		t.Error("unknown peer must get nil")
	}
}

// TestExportOrderIsTotal is the regression test for the order the
// export views document — prefix, then announcing peer. Forty members
// announce the same prefix: sorting by prefix alone over the tables'
// map order returned them in a different order on every call.
func TestExportOrderIsTotal(t *testing.T) {
	s := testServer(t, "DE-CIX")
	scheme := s.Scheme()
	addPeer(t, s, 9, 9)
	for asn := uint32(100); asn < 140; asn++ {
		addPeer(t, s, asn, int(asn))
		announceOK(t, s, asn, route(asn, 1))
		announceOK(t, s, asn, route(asn, 0, scheme.DoNotAnnounce(9)))
	}
	for view, list := range map[string]func(uint32) []bgp.Route{"ExportTo": s.ExportTo, "NotExportedTo": s.NotExportedTo} {
		first := list(9)
		if len(first) != 40 {
			t.Fatalf("%s(9) = %d routes, want 40", view, len(first))
		}
		for i, r := range first {
			if r.PeerAS() != uint32(100+i) {
				t.Fatalf("%s(9)[%d] is AS%d's route: same-prefix routes are not in announcing-peer order", view, i, r.PeerAS())
			}
		}
		for retry := 0; retry < 10; retry++ {
			if !reflect.DeepEqual(first, list(9)) {
				t.Fatalf("%s(9) differs between two calls on an unchanged server", view)
			}
		}
	}
}

// randomTaggedRoute draws a route whose communities mix every way the
// scheme can steer an export, over all three flavours: targeted and
// to-everyone deny, allow and prepend tags, the same target named
// twice, denied and allowed at once, or asked for two prepend counts,
// 32-bit targets in large communities, the blackhole marker, and
// informational and private values that must survive the scrub. Lists
// are nil, empty or filled.
func randomTaggedRoute(rng *rand.Rand, scheme *dictionary.Scheme, peers []uint32, peer uint32, idx int) bgp.Route {
	r := route(peer, idx)
	r.Communities = nil
	if rng.Intn(4) == 0 {
		r.ASPath = append(r.ASPath, 64600+uint32(rng.Intn(50)), 64700+uint32(rng.Intn(50)))
	}
	last := peers[rng.Intn(len(peers))]
	target := func() uint32 {
		switch rng.Intn(5) {
		case 0, 1: // the target of the previous tag again
		case 2:
			last = 40000 + uint32(rng.Intn(3)) // not a member
		default:
			last = peers[rng.Intn(len(peers))]
		}
		return last
	}
	if rng.Intn(5) == 0 {
		r.Communities = []bgp.Community{}
	}
	for n := rng.Intn(7); n > 0; n-- {
		tgt := uint16(target())
		var c bgp.Community
		switch rng.Intn(9) {
		case 0, 1:
			c = scheme.DoNotAnnounce(tgt)
		case 2:
			c = scheme.AnnounceOnly(tgt)
		case 3:
			c = scheme.DoNotAnnounceAll()
		case 4:
			c = scheme.AnnounceAll()
		case 5:
			c, _ = scheme.Prepend(1+rng.Intn(3), tgt)
		case 6:
			c, _ = scheme.Prepend(1+rng.Intn(3), scheme.RSASN)
		case 7:
			c, _ = scheme.Info(rng.Intn(scheme.InfoCount))
		case 8:
			c = bgp.NewCommunity(uint16(peer), uint16(rng.Intn(500)))
		}
		r.Communities = append(r.Communities, c)
		if rng.Intn(4) == 0 {
			r.Communities = append(r.Communities, c) // a duplicate tag
		}
	}
	if rng.Intn(8) == 0 {
		if bh, err := scheme.BlackholeCommunity(); err == nil {
			r.Communities = append(r.Communities, bh)
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		if x, err := scheme.ExtPrepend(1+rng.Intn(3), uint16(target())); err == nil && rng.Intn(2) == 0 {
			r.ExtCommunities = append(r.ExtCommunities, x)
		} else {
			r.ExtCommunities = append(r.ExtCommunities, scheme.ExtInfo(rng.Intn(64)))
		}
	}
	for n := rng.Intn(4); n > 0 && scheme.SupportsLarge; n-- {
		tgt := target()
		if rng.Intn(4) == 0 {
			tgt = 0 // everyone
		}
		var l bgp.LargeCommunity
		switch rng.Intn(5) {
		case 0:
			l, _ = scheme.LargeDoNotAnnounce(tgt)
		case 1:
			l, _ = scheme.LargeAnnounceOnly(tgt)
		case 2:
			l, _ = scheme.LargePrepend(1+rng.Intn(3), tgt)
		case 3:
			l, _ = scheme.LargeInfo(rng.Intn(scheme.InfoCount))
		case 4:
			l = bgp.LargeCommunity{Global: uint32(scheme.RSASN), Local1: dictionary.LargeFnBlackhole}
		}
		r.LargeCommunities = append(r.LargeCommunities, l)
	}
	return r
}

// TestExportViewsMatchReferenceRandomized holds the value summaries and
// the walk to the from-scratch reference over seeded random tables:
// for every target, ExportTo and NotExportedTo are deeply equal to the
// reference's lists; VisitExported shows the same routes in walk order
// (announcing peer, then prefix) and counts them; and any paging of
// VisitNotExported concatenates to the whole view with a constant
// total.
func TestExportViewsMatchReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20211004))
	byPeerThenPrefix := func(a, b bgp.Route) int {
		if c := cmp.Compare(a.PeerAS(), b.PeerAS()); c != 0 {
			return c
		}
		return comparePrefix(a.Prefix, b.Prefix)
	}
	prepended, keptBlackhole, withheldTotal := 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		scheme := dictionary.ProfileByName([]string{"DE-CIX", "AMS-IX", "LINX"}[trial%3])
		s, err := New(Config{Scheme: scheme, ScrubActions: trial%4 != 3})
		if err != nil {
			t.Fatal(err)
		}
		// 70000 only fits a large community's target.
		peers := []uint32{100, 101, 102, 103, 104, 70000}
		for i, p := range peers {
			addPeer(t, s, p, i+1)
		}
		for _, p := range peers[:5] {
			for k, n := 0, rng.Intn(9); k < n; k++ {
				// A small prefix space: peers share prefixes and
				// re-announce their own.
				announceOK(t, s, p, randomTaggedRoute(rng, scheme, peers, p, rng.Intn(12)))
			}
		}
		for _, target := range append(peers, 999) {
			wantExported, wantWithheld := s.exportScan(target)
			if got := s.ExportTo(target); !reflect.DeepEqual(got, wantExported) {
				t.Fatalf("trial %d target %d: ExportTo\n got  %v\n want %v", trial, target, got, wantExported)
			}
			if got := s.NotExportedTo(target); !reflect.DeepEqual(got, wantWithheld) {
				t.Fatalf("trial %d target %d: NotExportedTo\n got  %v\n want %v", trial, target, got, wantWithheld)
			}

			var walked []bgp.Route
			total := s.VisitExported(target, func(r *bgp.Route) { walked = append(walked, r.Clone()) })
			if total != len(wantExported) || len(walked) != total {
				t.Fatalf("trial %d target %d: VisitExported visited %d, returned %d, want %d", trial, target, len(walked), total, len(wantExported))
			}
			if !slices.IsSortedFunc(walked, byPeerThenPrefix) {
				t.Fatalf("trial %d target %d: VisitExported out of walk order: %v", trial, target, walked)
			}
			slices.SortFunc(wantExported, byPeerThenPrefix)
			if !reflect.DeepEqual(walked, wantExported) {
				t.Fatalf("trial %d target %d: VisitExported\n got  %v\n want %v", trial, target, walked, wantExported)
			}

			slices.SortFunc(wantWithheld, byPeerThenPrefix)
			for _, size := range []int{1, 2, 5, -1} {
				var paged []bgp.Route
				for offset := 0; ; offset += max(size, 1) {
					n := len(paged)
					total := s.VisitNotExported(target, offset, size, func(r *bgp.Route) { paged = append(paged, r.Clone()) })
					if total != len(wantWithheld) {
						t.Fatalf("trial %d target %d: VisitNotExported total %d, want %d", trial, target, total, len(wantWithheld))
					}
					if size > 0 && len(paged)-n > size {
						t.Fatalf("trial %d target %d: page of %d exceeds limit %d", trial, target, len(paged)-n, size)
					}
					if len(paged) == n || size < 0 {
						break
					}
				}
				if !reflect.DeepEqual(paged, wantWithheld) {
					t.Fatalf("trial %d target %d page size %d: VisitNotExported\n got  %v\n want %v", trial, target, size, paged, wantWithheld)
				}
			}
			if n := s.VisitNotExported(target, -1, 5, func(*bgp.Route) { t.Error("visit past the end") }); n != len(wantWithheld) {
				t.Errorf("trial %d target %d: total %d for an overflowed offset, want %d", trial, target, n, len(wantWithheld))
			}

			withheldTotal += len(wantWithheld)
			for _, r := range wantExported {
				if len(r.ASPath) > 1 && r.ASPath[1] == r.ASPath[0] {
					prepended++
				}
				if s.cfg.ScrubActions && bgp.HasCommunity(r.Communities, bgp.BlackholeWellKnown) {
					keptBlackhole++
				}
			}
		}
	}
	if prepended < 50 || keptBlackhole < 20 || withheldTotal < 200 {
		t.Errorf("%d prepended, %d blackhole-kept, %d withheld routes: the draw no longer exercises every branch",
			prepended, keptBlackhole, withheldTotal)
	}
}

// TestVisitExportedScratchIsNotShared: the route VisitExported hands to
// visit is the walk's own scratch. Scribbling over it touches neither
// the Adj-RIB-In nor what ExportTo returned before or returns after,
// and ExportTo's routes share no memory with each other.
func TestVisitExportedScratchIsNotShared(t *testing.T) {
	s, scheme := exportFixture(t)
	p1, _ := scheme.Prepend(2, 200)
	large, _ := scheme.LargeInfo(1)
	for i := 0; i < 6; i++ {
		r := route(100, i, scheme.DoNotAnnounce(300), p1, bgp.NewCommunity(100, uint16(i)))
		r.ExtCommunities = []bgp.ExtendedCommunity{scheme.ExtInfo(i)}
		r.LargeCommunities = []bgp.LargeCommunity{large}
		announceOK(t, s, 100, r)
	}
	accepted := s.AcceptedRoutes(100)
	before := s.ExportTo(200)
	want, _ := s.exportScan(200)

	scribble := func(r *bgp.Route) {
		for i := range r.ASPath {
			r.ASPath[i] = 0xdead
		}
		for i := range r.Communities {
			r.Communities[i] = 0xdeadbeef
		}
		for i := range r.ExtCommunities {
			r.ExtCommunities[i] = bgp.ExtendedCommunity{0xde, 0xad}
		}
		for i := range r.LargeCommunities {
			r.LargeCommunities[i] = bgp.LargeCommunity{Global: 0xdead}
		}
		r.Prefix, r.MED = netip.Prefix{}, 0xdead
	}
	if n := s.VisitExported(200, scribble); n != len(before) {
		t.Fatalf("walk visited %d routes, ExportTo returned %d", n, len(before))
	}
	if !reflect.DeepEqual(s.AcceptedRoutes(100), accepted) {
		t.Error("scribbling over the scratch changed the Adj-RIB-In")
	}
	if !reflect.DeepEqual(before, want) {
		t.Error("scribbling over a later walk's scratch changed an earlier ExportTo result")
	}
	after := s.ExportTo(200)
	if !reflect.DeepEqual(after, want) {
		t.Error("ExportTo after a scribbling walk differs from the reference")
	}
	scribble(&after[0])
	if !reflect.DeepEqual(after[1:], want[1:]) {
		t.Error("ExportTo's routes share memory with each other")
	}
}

// TestAnnounceAllocs pins what an accepted route costs to store: the
// deep copy, and for the action summary nothing when the route carries
// no action community, one slice when it names targets — however many
// and in whatever mix of deny and allow — and one more when it asks for
// targeted prepends.
func TestAnnounceAllocs(t *testing.T) {
	s, scheme := exportFixture(t)
	p1, _ := scheme.Prepend(1, 200)
	p2, _ := scheme.Prepend(3, 300)
	info, _ := scheme.Info(0)
	var many []bgp.Community
	for tgt := uint16(1000); tgt < 1032; tgt++ {
		many = append(many, scheme.DoNotAnnounce(tgt), scheme.AnnounceOnly(tgt+500))
	}
	allocs := func(comms ...bgp.Community) float64 {
		r := route(100, 0, comms...)
		announceOK(t, s, 100, r) // the scratch and the table slot exist from here on
		return testing.AllocsPerRun(50, func() {
			if reason, err := s.Announce(100, r); err != nil || reason != FilterNone {
				t.Fatal(reason, err)
			}
		})
	}
	plain := allocs(info)
	if got := allocs(info, scheme.DoNotAnnounceAll(), scheme.AnnounceAll()); got != plain {
		t.Errorf("a route with untargeted actions costs %v allocations, a plain one %v: want the same", got, plain)
	}
	if got := allocs(scheme.DoNotAnnounce(200)); got != plain+1 {
		t.Errorf("one targeted tag costs %v allocations, want %v (plain + its target list)", got, plain+1)
	}
	if got := allocs(many...); got != plain+1 {
		t.Errorf("%d targeted tags cost %v allocations, want %v (plain + one target list)", len(many), got, plain+1)
	}
	if got := allocs(append(many, p1, p2)...); got != plain+2 {
		t.Errorf("targets and targeted prepends cost %v allocations, want %v", got, plain+2)
	}
}
