package rs

import (
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/dictionary"
)

// ribPeers are the members the store tests drive; ribPrefixes is how
// many prefixes each may hold, few enough that replacements are common.
var ribPeers = []uint32{100, 200, 300, 400}

const ribPrefixes = 12

// ribOps replays an op sequence against a fresh server and, after
// every op, holds the server to a map of clones: each op is three
// bytes — kind and peer, prefix, and the seed of the route's tags and
// list lengths. The kinds are announce, replace a held prefix, replace
// one with a route the import policy rejects, withdraw, and
// RemovePeer (the member then re-joins with an empty table). It
// returns how many times the slabs were compacted.
func ribOps(t *testing.T, ops []byte) (compactions int) {
	s := testServer(t, "DE-CIX")
	for i, p := range ribPeers {
		addPeer(t, s, p, i+1)
	}
	scheme := s.Scheme()
	model := make(map[uint32]map[netip.Prefix]bgp.Route)
	for _, p := range ribPeers {
		model[p] = map[netip.Prefix]bgp.Route{}
	}
	// held picks the n-th prefix peer holds, or a fresh one.
	held := func(peer uint32, n int) int {
		var idx []int
		for i := 0; i < ribPrefixes; i++ {
			if _, ok := model[peer][route(peer, i).Prefix]; ok {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return n % ribPrefixes
		}
		return idx[n%len(idx)]
	}
	lastHeld := s.slabsHeld()
	for k := 0; k+3 <= len(ops); k += 3 {
		kind, peer := ops[k]%5, ribPeers[int(ops[k]/5)%len(ribPeers)]
		n, shape := int(ops[k+1]), ops[k+2]
		seen, want := s.visitSnapshot(peer)

		switch kind {
		case 0, 1:
			idx := n % ribPrefixes
			if kind == 1 {
				idx = held(peer, n)
			}
			r := ribRoute(scheme, peer, idx, shape)
			reason, err := s.Announce(peer, r)
			if err != nil {
				t.Fatalf("op %d: %v", k/3, err)
			}
			if reason == FilterNone {
				model[peer][r.Prefix] = r.Clone()
			} else {
				delete(model[peer], r.Prefix)
			}
		case 2:
			r := ribRoute(scheme, peer, held(peer, n), shape)
			r.ASPath = bgp.ASPath{peer, 3356, peer}
			if reason, err := s.Announce(peer, r); err != nil || reason != FilterPathLoop {
				t.Fatalf("op %d: looping route: %v %v", k/3, reason, err)
			}
			delete(model[peer], r.Prefix)
		case 3:
			p := route(peer, held(peer, n)).Prefix
			s.Withdraw(peer, p)
			delete(model[peer], p)
		case 4:
			s.RemovePeer(peer)
			addPeer(t, s, peer, slices.Index(ribPeers, peer)+1)
			model[peer] = map[netip.Prefix]bgp.Route{}
		}

		if !reflect.DeepEqual(seen, want) {
			t.Fatalf("op %d (kind %d): lists a visitor saw before the op read differently after it", k/3, kind)
		}
		s.checkAgainst(t, k/3, model)
		h := s.slabsHeld()
		if h < lastHeld {
			compactions++
		}
		lastHeld = h
	}
	return compactions
}

// ribRoute is peer's route for prefix idx, tagged from shape: the
// randomized tag mix of the export tests, padded with up to 255
// informational communities and a few extended ones so that the slabs
// fill and compact within a few hundred ops.
func ribRoute(scheme *dictionary.Scheme, peer uint32, idx int, shape byte) bgp.Route {
	r := randomTaggedRoute(rand.New(rand.NewSource(int64(shape))), scheme, ribPeers, peer, idx)
	for i := 0; i < int(shape); i++ {
		r.Communities = append(r.Communities, bgp.NewCommunity(uint16(peer), uint16(i)))
	}
	for i := 0; i < int(shape)%8; i++ {
		r.ExtCommunities = append(r.ExtCommunities, scheme.ExtInfo(i))
	}
	return r
}

// visitSnapshot walks peer's accepted routes and the routes withheld
// from the next member, keeping what the visitor was handed — the
// route with the store's own lists — next to a deep copy of it.
func (s *Server) visitSnapshot(peer uint32) (seen, want []bgp.Route) {
	keep := func(r *bgp.Route) {
		seen = append(seen, *r)
		want = append(want, r.Clone())
	}
	s.VisitAccepted(peer, 0, -1, keep)
	s.VisitNotExported(ribPeers[(slices.Index(ribPeers, peer)+1)%len(ribPeers)], 0, -1, keep)
	return seen, want
}

// slabsHeld reads what the slabs hold under the read lock; it only
// falls when they are compacted.
func (s *Server) slabsHeld() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	held, _, _ := s.store.usage()
	return held
}

// checkAgainst holds every listing and export view to the model, and
// the store's counts to what its entries use.
func (s *Server) checkAgainst(t *testing.T, op int, model map[uint32]map[netip.Prefix]bgp.Route) {
	t.Helper()
	for peer, table := range model {
		var want []bgp.Route
		for _, r := range table {
			want = append(want, r)
		}
		slices.SortFunc(want, func(a, b bgp.Route) int { return comparePrefix(a.Prefix, b.Prefix) })
		if got := s.AcceptedRoutes(peer); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("op %d: AS%d lists\n got  %v\n want %v", op, peer, got, want)
		}
	}
	for _, target := range append(slices.Clip(ribPeers), 999) {
		exported, withheld := exportScanOf(s.cfg, model, target)
		if got := s.ExportTo(target); !reflect.DeepEqual(got, exported) {
			t.Fatalf("op %d: ExportTo(%d)\n got  %v\n want %v", op, target, got, exported)
		}
		if got := s.NotExportedTo(target); !reflect.DeepEqual(got, withheld) {
			t.Fatalf("op %d: NotExportedTo(%d)\n got  %v\n want %v", op, target, got, withheld)
		}
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	held, room, live := s.store.usage()
	used := 0
	for _, rib := range s.ribIn {
		for _, e := range rib {
			used += len(e.route.ASPath) + len(e.route.Communities) + len(e.route.ExtCommunities) +
				len(e.route.LargeCommunities) + len(e.actions.targets) + len(e.actions.prepend)
		}
	}
	if live != used || held-room < live {
		t.Fatalf("op %d: slabs count %d live of %d held (%d room), entries use %d", op, live, held, room, used)
	}
	if bound := 2*live + len(s.store.slabs())*slabChunk; held > bound {
		t.Fatalf("op %d: slabs hold %d elements for %d live, want ≤ %d", op, held, live, bound)
	}
}

// TestRIBOpsMatchRebuild replays seeded op sequences long enough to
// compact the slabs several times.
func TestRIBOpsMatchRebuild(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ops := make([]byte, 3*500)
		rand.New(rand.NewSource(seed)).Read(ops)
		n := ribOps(t, ops)
		t.Logf("seed %d: %d compactions", seed, n)
		if n < 3 {
			t.Errorf("seed %d: %d compactions, want ≥ 3", seed, n)
		}
	}
}

// FuzzRIBOps holds the store to the map of clones on any op sequence.
func FuzzRIBOps(f *testing.F) {
	f.Add([]byte{0, 1, 200, 0, 1, 201, 2, 1, 7, 3, 1, 0, 4, 0, 0})
	f.Add([]byte{5, 3, 255, 10, 3, 255, 1, 3, 255, 1, 3, 254, 1, 3, 253, 8, 3, 9, 19, 3, 1})
	seeded := make([]byte, 3*200)
	rand.New(rand.NewSource(4)).Read(seeded)
	f.Add(seeded)
	f.Fuzz(func(t *testing.T, ops []byte) { ribOps(t, ops) })
}
