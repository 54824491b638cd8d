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
// every op, holds the server to a map of clones, a count of rejections
// and a version per peer: each op is three bytes — kind and peer,
// prefix, and the seed of the route's tags and list lengths. The kinds
// are announce, replace a held prefix, replace one with a route the
// import policy rejects, withdraw, RemovePeer (the member then re-joins
// with an empty table), and Load of a batch (loadBatch) onto whatever
// the server holds. It returns how many times the slabs were
// compacted.
func ribOps(t *testing.T, ops []byte) (compactions int) {
	s := testServer(t, "DE-CIX")
	for _, p := range ribPeers {
		addPeer(t, s, p)
	}
	scheme := s.Scheme()
	model := make(map[uint32]map[netip.Prefix]bgp.Route)
	rejected := make(map[uint32]int)
	versions := make(map[uint32]uint64)
	var clock uint64
	for _, p := range ribPeers {
		model[p] = map[netip.Prefix]bgp.Route{}
	}
	// bump, accept and reject move the model as the server documents:
	// every change to a peer's Adj-RIB-In takes the next version.
	bump := func(peer uint32) {
		clock++
		versions[peer] = clock
	}
	accept := func(peer uint32, r bgp.Route) {
		model[peer][r.Prefix] = r.Clone()
		bump(peer)
	}
	reject := func(peer uint32, p netip.Prefix) {
		if _, ok := model[peer][p]; ok {
			delete(model[peer], p)
			bump(peer)
		}
		rejected[peer]++
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
		kind, peer := ops[k]%6, ribPeers[int(ops[k]/6)%len(ribPeers)]
		n, shape := int(ops[k+1]), ops[k+2]
		seen, want := s.visitSnapshot()

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
				accept(peer, r)
			} else {
				reject(peer, r.Prefix)
			}
		case 2:
			r := ribRoute(scheme, peer, held(peer, n), shape)
			r.ASPath = bgp.ASPath{peer, 3356, peer}
			if reason, err := s.Announce(peer, r); err != nil || reason != FilterPathLoop {
				t.Fatalf("op %d: looping route: %v %v", k/3, reason, err)
			}
			reject(peer, r.Prefix)
		case 3:
			p := route(peer, held(peer, n)).Prefix
			s.Withdraw(peer, p)
			if _, ok := model[peer][p]; ok {
				delete(model[peer], p)
				bump(peer)
			}
		case 4:
			s.RemovePeer(peer)
			addPeer(t, s, peer)
			model[peer] = map[netip.Prefix]bgp.Route{}
			delete(rejected, peer)
			bump(peer)
		case 5:
			batch, loop := loadBatch(scheme, peer, held(peer, n), n, shape)
			reasons, err := s.Load([]Peer{{ASN: peer, Name: "re-added", IPv4: true, IPv6: true}}, batch[:1], batch[1:])
			if err != nil || len(reasons) != len(batch) {
				t.Fatalf("op %d: load of %d routes: %d reasons, %v", k/3, len(batch), len(reasons), err)
			}
			if reasons[loop] != FilterPathLoop {
				t.Fatalf("op %d: the batch's looping route: %v", k/3, reasons[loop])
			}
			for i, r := range batch {
				if reasons[i] == FilterNone {
					accept(r.PeerAS(), r)
				} else {
					reject(r.PeerAS(), r.Prefix)
				}
			}
		}

		if !reflect.DeepEqual(seen, want) {
			t.Fatalf("op %d (kind %d): lists a visitor saw before the op read differently after it", k/3, kind)
		}
		s.checkAgainst(t, k/3, model, rejected, versions)
		h := s.slabsHeld()
		if h < lastHeld {
			compactions++
		}
		lastHeld = h
	}
	return compactions
}

// loadBatch is the table one Load op announces: a few routes of any
// member, the first of them announced twice (the second time with
// other tags, so it replaces the first within the batch), and a route
// of peer for prefix idx — a held one, as a rule — whose looping path
// the import policy rejects, so it withdraws what peer held there. It
// returns the batch and where the looping route is.
func loadBatch(scheme *dictionary.Scheme, peer uint32, idx, n int, shape byte) (batch []bgp.Route, loop int) {
	rng := rand.New(rand.NewSource(int64(n)<<8 | int64(shape)))
	twice, twiceIdx := ribPeers[rng.Intn(len(ribPeers))], rng.Intn(ribPrefixes)
	batch = append(batch, ribRoute(scheme, twice, twiceIdx, byte(rng.Intn(256))))
	for i := n % 5; i > 0; i-- {
		batch = append(batch, ribRoute(scheme, ribPeers[rng.Intn(len(ribPeers))], rng.Intn(ribPrefixes), byte(rng.Intn(256))))
	}
	batch = append(batch, ribRoute(scheme, twice, twiceIdx, shape))
	r := ribRoute(scheme, peer, idx, shape)
	r.ASPath = bgp.ASPath{peer, 3356, peer}
	loop = rng.Intn(len(batch) + 1)
	return slices.Insert(batch, loop, r), loop
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

// visitSnapshot walks every member's accepted routes, keeping what the
// visitor was handed — the route with the store's own lists — next to
// a deep copy of it.
func (s *Server) visitSnapshot() (seen, want []bgp.Route) {
	keep := func(r *bgp.Route) {
		seen = append(seen, *r)
		want = append(want, r.Clone())
	}
	for _, peer := range ribPeers {
		s.VisitAccepted(peer, 0, -1, keep)
	}
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

// checkAgainst holds every listing, export view, rejection count and
// version to the model, and the store's counts to what its entries use.
func (s *Server) checkAgainst(t *testing.T, op int, model map[uint32]map[netip.Prefix]bgp.Route, rejected map[uint32]int, versions map[uint32]uint64) {
	t.Helper()
	for peer, table := range model {
		if _, f := s.RouteCounts(peer); f != rejected[peer] {
			t.Fatalf("op %d: AS%d counts %d rejections, want %d", op, peer, f, rejected[peer])
		}
		if _, v := s.VisitAccepted(peer, 0, 0, nil); v != versions[peer] {
			t.Fatalf("op %d: AS%d is at version %d, want %d", op, peer, v, versions[peer])
		}
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
		exported, _ := exportScanOf(s.cfg, model, target)
		if got := s.ExportTo(target); !reflect.DeepEqual(got, exported) {
			t.Fatalf("op %d: ExportTo(%d)\n got  %v\n want %v", op, target, got, exported)
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
