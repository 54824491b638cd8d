package rs

import (
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ixplight/internal/bgp"
	"ixplight/internal/netutil"
)

// listingServer is a server with one peer (AS100) that has a session
// for both families, and a second without routes.
func listingServer(t *testing.T) *Server {
	t.Helper()
	s := testServer(t, "DE-CIX")
	addPeer(t, s, 100)
	addPeer(t, s, 200)
	return s
}

func listingRoute(i int, v6 bool, med uint32) bgp.Route {
	r := bgp.Route{Prefix: netutil.SyntheticV4Prefix(i), NextHop: netutil.PeerAddrV4(1), ASPath: bgp.ASPath{100}, MED: med}
	if v6 {
		r.Prefix, r.NextHop = netutil.SyntheticV6Prefix(i), netutil.PeerAddrV6(1)
	}
	return r
}

// TestVersionMovesWithTheTable: a peer's Adj-RIB-In version, which
// VisitAccepted reads with the page, moves on every accepted announce,
// replacement, withdrawal of a held prefix and peer removal, and on
// nothing else; no version repeats across a removal and re-add.
func TestVersionMovesWithTheTable(t *testing.T) {
	s := listingServer(t)
	version := func(peer uint32) uint64 {
		_, v := s.VisitAccepted(peer, 0, -1, func(*bgp.Route) {})
		return v
	}
	seen := map[uint64]bool{version(100): true}
	moves := func(what string, mutate func()) {
		t.Helper()
		before200 := version(200)
		mutate()
		v := version(100)
		if seen[v] {
			t.Errorf("%s: version %d repeats", what, v)
		}
		seen[v] = true
		if version(200) != before200 {
			t.Errorf("%s: moved another peer's version", what)
		}
	}
	stays := func(what string, mutate func()) {
		t.Helper()
		before := version(100)
		mutate()
		if version(100) != before {
			t.Errorf("%s: version moved %d -> %d", what, before, version(100))
		}
	}
	r := listingRoute(1, false, 0)
	bad := listingRoute(2, false, 0)
	bad.ASPath = bgp.ASPath{999}
	moves("announce", func() { s.Announce(100, r) })
	moves("replace", func() { r.MED = 7; s.Announce(100, r) })
	stays("rejected announce of an unheld prefix", func() { s.Announce(100, bad) })
	stays("withdrawal of an unheld prefix", func() { s.Withdraw(100, bad.Prefix) })
	stays("re-adding the peer", func() { addPeer(t, s, 100) })
	stays("another peer's announce", func() { s.Announce(200, listingRoute(3, false, 0)) })
	bad.Prefix = r.Prefix
	moves("rejected re-announcement", func() { s.Announce(100, bad) })
	moves("announce", func() { s.Announce(100, r) })
	moves("withdrawal", func() { s.Withdraw(100, r.Prefix) })
	moves("announce", func() { s.Announce(100, r) })
	moves("removal", func() { s.RemovePeer(100) })
	stays("re-adding after removal", func() { addPeer(t, s, 100) })
	moves("announce after re-adding", func() { s.Announce(100, r) })
}

// TestOrderedViewFollowsMutations drives random announces,
// replacements, rejected replacements and withdrawals and checks after
// each that every way of listing a peer — AcceptedRoutes, VisitAccepted
// over any window, RouteCounts — shows exactly the table, in prefix
// order, whether the view was cached before the mutation or not.
func TestOrderedViewFollowsMutations(t *testing.T) {
	s := listingServer(t)
	rng := rand.New(rand.NewSource(1))
	held := map[netip.Prefix]uint32{} // prefix → MED of the accepted route
	filtered := 0
	for step := 0; step < 600; step++ {
		i, v6 := rng.Intn(40), rng.Intn(3) == 0
		switch rng.Intn(5) {
		case 0:
			s.Withdraw(100, listingRoute(i, v6, 0).Prefix)
			delete(held, listingRoute(i, v6, 0).Prefix)
		case 1:
			bad := listingRoute(i, v6, 0)
			bad.ASPath = bgp.ASPath{999}
			if reason, _ := s.Announce(100, bad); reason == FilterNone {
				t.Fatal("first-AS mismatch accepted")
			}
			delete(held, bad.Prefix) // a rejected re-announcement still replaces
			filtered++
		default:
			r := listingRoute(i, v6, uint32(step))
			if reason, err := s.Announce(100, r); err != nil || reason != FilterNone {
				t.Fatalf("announce: %v %v", reason, err)
			}
			held[r.Prefix] = r.MED
		}
		if rng.Intn(3) == 0 {
			continue // let several mutations pile up on one stale view
		}
		want := make([]netip.Prefix, 0, len(held))
		for p := range held {
			want = append(want, p)
		}
		slices.SortFunc(want, comparePrefix)

		got := s.AcceptedRoutes(100)
		if len(got) != len(want) {
			t.Fatalf("step %d: %d routes listed, %d held", step, len(got), len(want))
		}
		for k, r := range got {
			if r.Prefix != want[k] || r.MED != held[r.Prefix] {
				t.Fatalf("step %d: route %d is %s med %d, want %s med %d", step, k, r.Prefix, r.MED, want[k], held[want[k]])
			}
		}
		if a, f := s.RouteCounts(100); a != len(want) || f != filtered {
			t.Fatalf("step %d: RouteCounts = %d, %d; want %d, %d", step, a, f, len(want), filtered)
		}
		offset, limit := rng.Intn(len(want)+3)-1, rng.Intn(len(want)+3)-1
		var window []netip.Prefix
		total, _ := s.VisitAccepted(100, offset, limit, func(r *bgp.Route) { window = append(window, r.Prefix) })
		lo, hi := window_(len(want), offset, limit)
		if total != len(want) || !slices.Equal(window, want[lo:hi]) {
			t.Fatalf("step %d: VisitAccepted(%d, %d) = %v of %d, want %v of %d", step, offset, limit, window, total, want[lo:hi], len(want))
		}
	}
	if a, f := s.RouteCounts(200); a != 0 || f != 0 || len(s.AcceptedRoutes(200)) != 0 {
		t.Error("a peer without routes lists some")
	}
	if a, f := s.RouteCounts(999); a != 0 || f != 0 || s.AcceptedRoutes(999) != nil {
		t.Error("an unknown peer lists routes")
	}
	if total, _ := s.VisitAccepted(999, 0, 10, nil); total != 0 {
		t.Error("an unknown peer lists routes")
	}
}

// window_ is the test's own statement of a listing window: offsets
// before the start or past the end select nothing, a negative limit
// means "to the end".
func window_(n, offset, limit int) (lo, hi int) {
	if offset < 0 || offset > n {
		return n, n
	}
	if limit < 0 || offset+limit > n {
		return offset, n
	}
	return offset, offset + limit
}

// TestAcceptedRoutesAreCopies: the listing hands out deep copies, the
// visit the entry itself.
func TestAcceptedRoutesAreCopies(t *testing.T) {
	s := listingServer(t)
	r := listingRoute(1, false, 5)
	r.Communities = []bgp.Community{bgp.NewCommunity(100, 1)}
	if _, err := s.Announce(100, r); err != nil {
		t.Fatal(err)
	}
	got := s.AcceptedRoutes(100)
	got[0].Communities[0] = 0
	got[0].ASPath[0] = 0
	if again := s.AcceptedRoutes(100); !reflect.DeepEqual(again[0].Communities, r.Communities) || again[0].ASPath[0] != 100 {
		t.Error("modifying a listed route reached the Adj-RIB-In")
	}
}

// TestListingsDuringMutations hammers the cached view from readers
// while writers change the table (run under -race): a window and its
// total come from one consistent table, so a whole-table window always
// has exactly total routes, in strictly ascending order.
func TestListingsDuringMutations(t *testing.T) {
	s := listingServer(t)
	for i := 0; i < 50; i++ {
		s.Announce(100, listingRoute(i, false, 0))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for {
			select {
			case <-stop:
				return
			default:
			}
			i := rng.Intn(80)
			if rng.Intn(2) == 0 {
				s.Withdraw(100, listingRoute(i, false, 0).Prefix)
			} else {
				s.Announce(100, listingRoute(i, false, uint32(i)))
			}
		}
	}()
	var readers sync.WaitGroup
	for reader := 0; reader < 4; reader++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; k < 400; k++ {
				var prev netip.Prefix
				n, ordered := 0, true
				total, _ := s.VisitAccepted(100, 0, 1<<30, func(r *bgp.Route) {
					if n > 0 && comparePrefix(prev, r.Prefix) >= 0 {
						ordered = false
					}
					prev = r.Prefix
					n++
				})
				if n != total || !ordered {
					t.Errorf("torn listing: visited %d of %d, ordered=%v", n, total, ordered)
					return
				}
				if got := s.AcceptedRoutes(100); !slices.IsSortedFunc(got, func(a, b bgp.Route) int { return comparePrefix(a.Prefix, b.Prefix) }) {
					t.Error("AcceptedRoutes out of order")
					return
				}
				s.RouteCounts(100)
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}
